// Package soc assembles the full simulated microcontroller: TriCore-like
// CPU, PCP coprocessor, DMA controller, interrupt router, embedded flash,
// SRAM, scratchpads, the three buses (program LMB, data LMB, SPB), the
// peripheral set, and — on the Emulation Device variants — the Emulation
// Extension Chip consisting of EMEM and the attachment points the MCDS and
// DAP use.
//
// Presets follow the AUDO FUTURE family of the paper: TC1797-like
// (high-end) and TC1767-like (mid-range), each with an ED twin.
package soc

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/bus"
	"repro/internal/cache"
	"repro/internal/dma"
	"repro/internal/emem"
	"repro/internal/flash"
	"repro/internal/irq"
	"repro/internal/isa"
	"repro/internal/mem"
	"repro/internal/pcp"
	"repro/internal/periph"
	"repro/internal/sim"
	"repro/internal/tricore"
)

// Config describes one SoC variant.
type Config struct {
	Name       string
	CPUFreqMHz uint64 // nominal CPU clock, used by the DAP bandwidth model

	Flash       flash.Config
	SRAMSize    uint32
	SRAMLatency uint64
	PSPRSize    uint32
	DSPRSize    uint32

	ICache *cache.Config // nil = no instruction cache
	DCache *cache.Config // nil = no data cache

	// SecondCore adds a second TriCore core with its own scratchpads and
	// caches, sharing the buses and flash — the "increasing ... number of
	// cores" direction the paper's conclusion claims the methodology is
	// sustainable for (and which the later AURIX family realized).
	SecondCore bool

	// Emulation Device extension (EEC).
	ED          bool
	EMEMSize    uint32
	EMEMOverlay uint32 // bytes of EMEM reserved for calibration overlay
}

// ememLatency is the EMEM access latency in cycles on every ED variant.
const ememLatency = 2

// pramSize is the PCP's code/data RAM on every preset; every SoC has a
// PCP and a DMA controller.
const pramSize = 32 << 10

// TC1797 returns the high-end AUDO FUTURE preset: 180 MHz, 4 MB flash,
// 16 KB I-cache, 4 KB D-cache, PCP and DMA.
func TC1797() Config {
	fcfg := flash.DefaultConfig()
	return Config{
		Name:        "TC1797",
		CPUFreqMHz:  180,
		Flash:       fcfg,
		SRAMSize:    128 << 10,
		SRAMLatency: 2,
		PSPRSize:    40 << 10,
		DSPRSize:    128 << 10,
		ICache:      &cache.Config{Size: 16 << 10, LineBytes: 32, Ways: 2},
		DCache:      &cache.Config{Size: 4 << 10, LineBytes: 32, Ways: 2},
	}
}

// TC1767 returns the mid-range preset: 133 MHz, 2 MB flash, 8 KB I-cache,
// no D-cache, PCP and DMA.
func TC1767() Config {
	cfg := TC1797()
	cfg.Name = "TC1767"
	cfg.CPUFreqMHz = 133
	cfg.Flash.Size = 2 << 20
	cfg.Flash.WaitStates = 4
	cfg.SRAMSize = 64 << 10
	cfg.PSPRSize = 24 << 10
	cfg.DSPRSize = 68 << 10
	cfg.ICache = &cache.Config{Size: 8 << 10, LineBytes: 32, Ways: 2}
	cfg.DCache = nil
	return cfg
}

// TC1797DC returns the dual-core variant of the TC1797 preset: a second
// TriCore with its own scratchpads and caches sharing buses and flash —
// the multi-core direction the paper's conclusion points at.
func TC1797DC() Config {
	cfg := TC1797()
	cfg.Name = "TC1797DC"
	cfg.SecondCore = true
	return cfg
}

// presets is the single registry of production SoC configurations. Preset
// and PresetNames both derive from it, so the accepted names cannot drift
// between the lookup and the displayed list (the failure mode the old
// hand-kept slice invited when TC1797DC was added).
var presets = map[string]func() Config{
	"TC1797":   TC1797,
	"TC1767":   TC1767,
	"TC1797DC": TC1797DC,
}

// Preset returns the named production SoC configuration. Every CLI and
// campaign spec resolves SoC names through this single table; an unknown
// name yields an error listing every accepted one.
func Preset(name string) (Config, error) {
	f, ok := presets[name]
	if !ok {
		return Config{}, fmt.Errorf("soc: unknown preset %q (have %s)",
			name, strings.Join(PresetNames(), ", "))
	}
	return f(), nil
}

// PresetNames lists the names Preset accepts, sorted.
func PresetNames() []string {
	names := make([]string, 0, len(presets))
	for n := range presets {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// WithED returns the Emulation Device twin of cfg (TC1797 → TC1797ED with
// 512 KB EMEM, TC1767 → TC1767ED with 256 KB), per the paper's Figure 4.
func (c Config) WithED() Config {
	c.ED = true
	c.Name += "ED"
	c.EMEMSize = 512 << 10
	if c.Flash.Size <= 2<<20 {
		c.EMEMSize = 256 << 10
	}
	c.EMEMOverlay = c.EMEMSize / 4
	return c
}

// SoC is an assembled system.
type SoC struct {
	Cfg   Config
	Clock *sim.Clock

	CPU    *tricore.CPU
	CPU1   *tricore.CPU // nil unless Cfg.SecondCore
	PCP    *pcp.PCP
	DMA    *dma.Controller
	Router *irq.Router

	Flash *flash.Flash
	SRAM  *mem.RAM
	PSPR  *mem.RAM
	DSPR  *mem.RAM
	PSPR1 *mem.RAM // nil unless Cfg.SecondCore
	DSPR1 *mem.RAM
	PRAM  *mem.RAM

	PLMB *bus.Bus
	DLMB *bus.Bus
	SPB  *bus.Bus

	EMEM    *emem.EMEM    // nil unless Cfg.ED
	Overlay *emem.Overlay // flash data port wrapper, nil unless Cfg.ED

	// Decoder is the decode-once basic-block cache shared by the TriCore
	// cores (the PCP core decodes per-word: its PRAM doubles as its data
	// scratchpad, so code there is trivially self-modifiable). Chained
	// dispatch by default; SetBlockDecode(false) selects per-word decode.
	Decoder *isa.Decoder

	periphNext uint32
	rng        *sim.RNG
}

// New assembles a SoC from cfg. seed drives all stochastic peripherals.
func New(cfg Config, seed uint64) *SoC {
	s := &SoC{
		Cfg:        cfg,
		Clock:      sim.NewClock(),
		Router:     irq.New(),
		periphNext: mem.PeriphBase,
		rng:        sim.NewRNG(seed),
	}

	s.Flash = flash.New(cfg.Flash)
	s.Decoder = isa.NewDecoder(isa.DefaultBlockCacheSize)
	// Any write that can change code must invalidate decoded blocks. Flash
	// is fetched through both its cached and uncached views, so a written
	// window invalidates under both keys.
	s.Flash.OnWrite = func(addr uint32, n int) {
		cached := mem.CachedView(addr)
		s.Decoder.InvalidateRange(cached, uint32(n))
		s.Decoder.InvalidateRange(cached-mem.DeltaUncachedToCached, uint32(n))
	}
	s.SRAM = mem.NewRAM("lmu", mem.SRAMBase, cfg.SRAMSize, cfg.SRAMLatency)
	s.PSPR = mem.NewRAM("pspr", mem.PSPRBase, cfg.PSPRSize, 0)
	s.DSPR = mem.NewRAM("dspr", mem.DSPRBase, cfg.DSPRSize, 0)

	s.PLMB = bus.New("plmb", 1)
	s.DLMB = bus.New("dlmb", 1)
	s.SPB = bus.New("spb", 2)

	// Program bus: flash code port, cached and uncached views.
	s.PLMB.Map(mem.FlashBase, cfg.Flash.Size, s.Flash.CodePort())
	s.PLMB.Map(mem.FlashUncach, cfg.Flash.Size, bus.NewAlias(s.Flash.CodePort(), mem.DeltaUncachedToCached))

	// Data bus: flash data port (wrapped by the calibration overlay on
	// EDs), SRAM (both views), EMEM segment, bridge to SPB.
	var dataPort bus.Target = s.Flash.DataPort()
	if cfg.ED {
		s.EMEM = emem.New(cfg.EMEMSize, cfg.EMEMOverlay, ememLatency)
		s.Overlay = emem.NewOverlay(dataPort, s.EMEM)
		s.Overlay.OnRemap = s.Decoder.InvalidateAll
		s.Overlay.OnWrite = s.Flash.OnWrite
		dataPort = s.Overlay
		// Data writes landing in the overlay partition can change what an
		// overlay-mapped flash window reads as; watch them.
		s.DLMB.Map(mem.EMEMBase, s.EMEM.Size(), codeWriteWatch{
			t:   s.EMEM.RAM,
			dec: s.Decoder,
			lim: mem.EMEMBase + s.EMEM.OverlayBytes(),
		})
	}
	s.DLMB.Map(mem.FlashBase, cfg.Flash.Size, dataPort)
	s.DLMB.Map(mem.FlashUncach, cfg.Flash.Size, bus.NewAlias(dataPort, mem.DeltaUncachedToCached))
	s.DLMB.Map(mem.SRAMBase, cfg.SRAMSize, s.SRAM)
	s.DLMB.Map(mem.SRAMUncach, cfg.SRAMSize, bus.NewAlias(s.SRAM, mem.DeltaUncachedToCached))
	// The whole 0xF segment (peripherals and PRAM) is bridged down to SPB.
	s.DLMB.Map(mem.PeriphBase, 0x1000_0000, bus.NewBridge("lfi-down", s.SPB, 1))

	// SPB: bridge up to the data LMB covering the memory segments
	// (0x8..0xB: flash and SRAM, both views) for DMA and PCP masters.
	// Peripherals and PRAM are mapped on the SPB as they are added.
	s.SPB.Map(mem.FlashBase, 0x4000_0000, bus.NewBridge("lfi-up", s.DLMB, 1))

	// CPU with caches counting into the core counter set.
	ctrs := new(sim.Counters)
	var ic, dc *cache.Cache
	if cfg.ICache != nil {
		ic = cache.New(*cfg.ICache, "i", ctrs)
	}
	if cfg.DCache != nil {
		dc = cache.New(*cfg.DCache, "d", ctrs)
	}
	s.CPU = tricore.New("tricore", 0,
		tricore.PMI{ICache: ic, PSPR: s.PSPR, Bus: s.PLMB, Peek: s.Peek},
		tricore.DMI{DCache: dc, DSPR: s.DSPR, Bus: s.DLMB, Peek: s.Peek},
		tricore.DefaultTiming(), ctrs)
	s.CPU.IRQ = s.Router.View(irq.ToCPU)
	s.CPU.SetDecoder(s.Decoder)

	if cfg.SecondCore {
		s.PSPR1 = mem.NewRAM("pspr1", mem.PSPR1Base, cfg.PSPRSize, 0)
		s.DSPR1 = mem.NewRAM("dspr1", mem.DSPR1Base, cfg.DSPRSize, 0)
		ctrs1 := new(sim.Counters)
		var ic1, dc1 *cache.Cache
		if cfg.ICache != nil {
			ic1 = cache.New(*cfg.ICache, "i", ctrs1)
		}
		if cfg.DCache != nil {
			dc1 = cache.New(*cfg.DCache, "d", ctrs1)
		}
		s.CPU1 = tricore.New("tricore1", 1,
			tricore.PMI{ICache: ic1, PSPR: s.PSPR1, Bus: s.PLMB, Peek: s.Peek},
			tricore.DMI{DCache: dc1, DSPR: s.DSPR1, Bus: s.DLMB, Peek: s.Peek},
			tricore.DefaultTiming(), ctrs1)
		s.CPU1.IRQ = s.Router.View(irq.ToCPU1)
		s.CPU1.SetDecoder(s.Decoder)
	}

	s.PRAM = mem.NewRAM("pram", mem.PRAMBase, pramSize, 1)
	s.SPB.Map(mem.PRAMBase, pramSize, s.PRAM)
	pcpCore := tricore.New("pcp", 1,
		tricore.PMI{PSPR: s.PRAM, Bus: s.SPB, Peek: s.Peek},
		tricore.DMI{DSPR: s.PRAM, Bus: s.SPB, Peek: s.Peek},
		pcp.Timing(), nil)
	s.PCP = pcp.New(pcpCore, s.PRAM, s.Router)
	s.DMA = dma.New("dma", s.SPB, s.Router)

	// Step order fixes same-cycle priorities: CPU first, then PCP, DMA,
	// and peripherals last (their requests become visible next cycle).
	s.Clock.Attach("cpu", s.CPU)
	if s.CPU1 != nil {
		s.Clock.Attach("cpu1", s.CPU1)
	}
	s.Clock.Attach("pcp", s.PCP)
	s.Clock.Attach("dma", s.DMA)
	return s
}

// codeWriteWatch wraps a bus target and invalidates the decoded-block
// cache on any write below lim — the EMEM overlay partition, whose content
// can be fetched as code through overlay-mapped flash windows. Reads pass
// through untouched.
type codeWriteWatch struct {
	t   bus.Target
	dec *isa.Decoder
	lim uint32
}

func (w codeWriteWatch) Name() string { return w.t.Name() }

func (w codeWriteWatch) Access(grant uint64, req *bus.Request) uint64 {
	if req.Write && req.Addr < w.lim {
		w.dec.InvalidateAll()
	}
	return w.t.Access(grant, req)
}

// SetBlockDecode selects how the TriCore cores dispatch instructions: on
// (the default) is chained block dispatch — decode-once basic blocks with
// direct block-to-block links across taken branches; off is per-word
// decode, the determinism reference. Both are bit-for-bit identical in
// simulated behaviour — only wall-clock cost per simulated cycle differs;
// the switch exists so tests can prove it (it mirrors
// sim.Clock.SetWakeScheduling).
func (s *SoC) SetBlockDecode(on bool) {
	d := s.Decoder
	if !on {
		d = nil
	}
	s.CPU.SetDecoder(d)
	if s.CPU1 != nil {
		s.CPU1.SetDecoder(d)
	}
}

// Peek implements the timing-free backdoor read used by caches, fetch and
// trace decoding.
func (s *SoC) Peek(addr uint32, p []byte) {
	a := mem.CachedView(addr)
	if s.Overlay != nil {
		if red, ok := s.Overlay.Resolve(a, len(p)); ok {
			a = red
		}
	}
	switch {
	case a >= mem.FlashBase && uint64(a)+uint64(len(p)) <= uint64(mem.FlashBase)+uint64(s.Cfg.Flash.Size):
		s.Flash.ReadDirect(a, p)
	case s.SRAM.Contains(a, len(p)):
		s.SRAM.Read(a, p)
	case s.PSPR.Contains(a, len(p)):
		s.PSPR.Read(a, p)
	case s.DSPR.Contains(a, len(p)):
		s.DSPR.Read(a, p)
	case s.PSPR1 != nil && s.PSPR1.Contains(a, len(p)):
		s.PSPR1.Read(a, p)
	case s.DSPR1 != nil && s.DSPR1.Contains(a, len(p)):
		s.DSPR1.Read(a, p)
	case s.PRAM.Contains(a, len(p)):
		s.PRAM.Read(a, p)
	case s.EMEM != nil && s.EMEM.RAM.Contains(a, len(p)):
		s.EMEM.RAM.Read(a, p)
	default:
		panic(fmt.Sprintf("soc %s: peek of unmapped address %#08x", s.Cfg.Name, addr))
	}
}

// LoadProgram places an assembled program into the memory its base address
// selects (flash, PSPR, or PRAM).
func (s *SoC) LoadProgram(p *isa.Program) {
	switch {
	case mem.Segment(p.Base) == mem.FlashBase || mem.Segment(p.Base) == mem.FlashUncach:
		s.Flash.Load(mem.CachedView(p.Base), p.Bytes())
	case s.PSPR.Contains(p.Base, int(p.Size())):
		s.PSPR.Write(p.Base, p.Bytes())
		s.Decoder.InvalidateRange(p.Base, p.Size())
	case s.PSPR1 != nil && s.PSPR1.Contains(p.Base, int(p.Size())):
		s.PSPR1.Write(p.Base, p.Bytes())
		s.Decoder.InvalidateRange(p.Base, p.Size())
	case s.PRAM.Contains(p.Base, int(p.Size())):
		s.PRAM.Write(p.Base, p.Bytes())
	default:
		panic(fmt.Sprintf("soc: cannot load program at %#08x", p.Base))
	}
}

// InvalidateCaches clears the CPU caches and the decoded-block cache.
// Calibration tools do this after remapping overlay pages: the tag-only
// cache model otherwise keeps serving pre-overlay data through the
// backdoor, and decoded blocks would keep pre-overlay instructions.
func (s *SoC) InvalidateCaches() {
	if s.CPU.PMI.ICache != nil {
		s.CPU.PMI.ICache.InvalidateAll()
	}
	if s.CPU.DMI.DCache != nil {
		s.CPU.DMI.DCache.InvalidateAll()
	}
	s.Decoder.InvalidateAll()
}

// ResetCPU starts the TriCore at entry with the stack at the top of DSPR.
func (s *SoC) ResetCPU(entry uint32) {
	s.CPU.Reset(entry, mem.DSPRBase+s.Cfg.DSPRSize-16)
}

// ResetCPU1 starts the second core (SecondCore configurations only).
func (s *SoC) ResetCPU1(entry uint32) {
	if s.CPU1 == nil {
		panic("soc: no second core configured")
	}
	s.CPU1.Reset(entry, mem.DSPR1Base+s.Cfg.DSPRSize-16)
}

// RunUntilHalt advances the system until the TriCore halts or limit cycles
// elapse; it returns the cycles executed and whether the CPU halted.
func (s *SoC) RunUntilHalt(limit uint64) (uint64, bool) {
	s.CPU.StopOnHalt()
	defer s.CPU.DisarmStop()
	return s.Clock.RunToStop(limit)
}

// allocPeriph reserves a register window on the SPB.
func (s *SoC) allocPeriph() uint32 {
	base := s.periphNext
	s.periphNext += periph.RegSize
	return base
}

// AddTimer creates a timer peripheral raising an SRN with the given
// priority/provider/vector every period cycles.
func (s *SoC) AddTimer(name string, period, offset uint64, prio uint32, prov irq.Provider, vector uint32) (*periph.Timer, *irq.SRN) {
	srn := s.Router.AddSRN(name, prio, prov, vector)
	t := periph.NewTimer(name, s.allocPeriph(), period, offset, s.Router, srn)
	s.SPB.Map(t.Base, periph.RegSize, t)
	s.Clock.Attach(name, t)
	return t, srn
}

// AddADC creates an ADC sampling a synthetic signal every period cycles.
func (s *SoC) AddADC(name string, period, offset uint64, sig *periph.Signal, prio uint32, prov irq.Provider, vector uint32) (*periph.ADC, *irq.SRN) {
	srn := s.Router.AddSRN(name, prio, prov, vector)
	a := periph.NewADC(name, s.allocPeriph(), period, offset, sig, s.Router, srn)
	s.SPB.Map(a.Base, periph.RegSize, a)
	s.Clock.Attach(name, a)
	return a, srn
}

// AddCAN creates a CAN-like message source.
func (s *SoC) AddCAN(name string, meanGap uint64, depth int, prio uint32, prov irq.Provider, vector uint32) (*periph.CANNode, *irq.SRN) {
	srn := s.Router.AddSRN(name, prio, prov, vector)
	c := periph.NewCANNode(name, s.allocPeriph(), meanGap, depth, s.rng.Fork(uint64(prio)), s.Router, srn)
	s.SPB.Map(c.Base, periph.RegSize, c)
	s.Clock.Attach(name, c)
	return c, srn
}

// AddFlexRay creates a time-triggered FlexRay-like node with the given
// static schedule.
func (s *SoC) AddFlexRay(name string, cycleLen uint64, numSlots int, rxSlots []int,
	txSlot, depth int, prio uint32, prov irq.Provider, vector uint32) (*periph.FlexRayNode, *irq.SRN) {
	srn := s.Router.AddSRN(name, prio, prov, vector)
	f := periph.NewFlexRay(name, s.allocPeriph(), cycleLen, numSlots, rxSlots,
		txSlot, depth, s.rng.Fork(uint64(prio)^0xF1), s.Router, srn)
	s.SPB.Map(f.Base, periph.RegSize, f)
	s.Clock.Attach(name, f)
	return f, srn
}
