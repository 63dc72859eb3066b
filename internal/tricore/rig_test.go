package tricore

import (
	"testing"

	"repro/internal/bus"
	"repro/internal/cache"
	"repro/internal/flash"
	"repro/internal/isa"
	"repro/internal/mem"
	"repro/internal/sim"
)

// rig is a minimal single-core system for CPU unit tests: flash behind two
// buses, SRAM, scratchpads, and optional caches.
type rig struct {
	cpu   *CPU
	fl    *flash.Flash
	sram  *mem.RAM
	pspr  *mem.RAM
	dspr  *mem.RAM
	plmb  *bus.Bus
	dlmb  *bus.Bus
	clock *sim.Clock
}

type rigOpt struct {
	icache, dcache bool
	flashWS        uint64
	prefetch       bool
}

func newRig(t *testing.T, opt rigOpt) *rig {
	t.Helper()
	fcfg := flash.DefaultConfig()
	fcfg.Size = 1 << 20
	if opt.flashWS != 0 {
		fcfg.WaitStates = opt.flashWS
	}
	fcfg.Prefetch = opt.prefetch
	fl := flash.New(fcfg)

	plmb := bus.New("plmb", 1)
	dlmb := bus.New("dlmb", 1)
	plmb.Map(mem.FlashBase, fcfg.Size, fl.CodePort())
	plmb.Map(mem.FlashUncach, fcfg.Size, bus.NewAlias(fl.CodePort(), mem.DeltaUncachedToCached))
	dlmb.Map(mem.FlashBase, fcfg.Size, fl.DataPort())
	dlmb.Map(mem.FlashUncach, fcfg.Size, bus.NewAlias(fl.DataPort(), mem.DeltaUncachedToCached))

	sram := mem.NewRAM("lmu", mem.SRAMBase, 1<<16, 2)
	dlmb.Map(mem.SRAMBase, sram.Size(), sram)
	dlmb.Map(mem.SRAMUncach, sram.Size(), bus.NewAlias(sram, mem.DeltaUncachedToCached))

	pspr := mem.NewRAM("pspr", mem.PSPRBase, 1<<15, 0)
	dspr := mem.NewRAM("dspr", mem.DSPRBase, 1<<15, 0)

	peek := func(addr uint32, p []byte) {
		a := mem.CachedView(addr)
		switch {
		case a >= mem.FlashBase && a < mem.FlashBase+fcfg.Size:
			fl.ReadDirect(a, p)
		case sram.Contains(a, len(p)):
			sram.Read(a, p)
		case pspr.Contains(a, len(p)):
			pspr.Read(a, p)
		case dspr.Contains(a, len(p)):
			dspr.Read(a, p)
		default:
			t.Fatalf("peek of unmapped address %#x", addr)
		}
	}

	ctrs := new(sim.Counters)
	var ic, dc *cache.Cache
	if opt.icache {
		ic = cache.New(cache.Config{Size: 4096, LineBytes: 32, Ways: 2}, "i", ctrs)
	}
	if opt.dcache {
		dc = cache.New(cache.Config{Size: 2048, LineBytes: 32, Ways: 2}, "d", ctrs)
	}

	cpu := New("tc0", 0,
		PMI{ICache: ic, PSPR: pspr, Bus: plmb, Peek: peek},
		DMI{DCache: dc, DSPR: dspr, Bus: dlmb, Peek: peek},
		DefaultTiming(), ctrs)

	clock := sim.NewClock()
	clock.Attach("tc0", cpu)
	return &rig{cpu: cpu, fl: fl, sram: sram, pspr: pspr, dspr: dspr, plmb: plmb, dlmb: dlmb, clock: clock}
}

// load places the program in flash (or PSPR when it fits the base) and
// resets the CPU to its entry.
func (r *rig) load(t *testing.T, p *isa.Program) {
	t.Helper()
	switch mem.Segment(p.Base) {
	case mem.FlashBase, mem.FlashUncach:
		r.fl.Load(mem.CachedView(p.Base), p.Bytes())
	case mem.PSPRBase:
		r.pspr.Write(p.Base, p.Bytes())
	default:
		t.Fatalf("cannot load at %#x", p.Base)
	}
	r.cpu.Reset(p.Base, mem.DSPRBase+0x7000)
}

// runToHalt runs the clock until the core halts or limit cycles have run,
// reporting the cycles executed and whether the core halted.
func (r *rig) runToHalt(limit uint64) (uint64, bool) {
	r.cpu.StopOnHalt()
	defer r.cpu.DisarmStop()
	return r.clock.RunToStop(limit)
}

// run executes until HALT or the cycle limit.
func (r *rig) run(t *testing.T, limit uint64) uint64 {
	t.Helper()
	n, ok := r.runToHalt(limit)
	if !ok {
		t.Fatalf("program did not halt within %d cycles (pc=%#x)", limit, r.cpu.PC())
	}
	return n
}

func mustAsm(t *testing.T, a *isa.Asm) *isa.Program {
	t.Helper()
	p, err := a.Assemble()
	if err != nil {
		t.Fatal(err)
	}
	return p
}
