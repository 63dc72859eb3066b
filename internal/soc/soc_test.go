package soc

import (
	"testing"

	"repro/internal/dma"
	"repro/internal/emem"
	"repro/internal/flash"
	"repro/internal/irq"
	"repro/internal/isa"
	"repro/internal/mem"
	"repro/internal/periph"
	"repro/internal/sim"
)

func mustAsm(t *testing.T, a *isa.Asm) *isa.Program {
	t.Helper()
	p, err := a.Assemble()
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func TestPresetsBuild(t *testing.T) {
	for _, cfg := range []Config{TC1797(), TC1767(), TC1797().WithED(), TC1767().WithED()} {
		s := New(cfg, 1)
		if s.CPU == nil || s.Flash == nil {
			t.Fatalf("%s: incomplete SoC", cfg.Name)
		}
		if cfg.ED && s.EMEM == nil {
			t.Fatalf("%s: ED without EMEM", cfg.Name)
		}
		if !cfg.ED && s.EMEM != nil {
			t.Fatalf("%s: production device with EMEM", cfg.Name)
		}
	}
	if got := TC1797().WithED().EMEMSize; got != 512<<10 {
		t.Errorf("TC1797ED EMEM = %d", got)
	}
	if got := TC1767().WithED().EMEMSize; got != 256<<10 {
		t.Errorf("TC1767ED EMEM = %d", got)
	}
}

func TestRunSimpleProgram(t *testing.T) {
	s := New(TC1797(), 1)
	a := isa.NewAsm(mem.FlashBase)
	a.Movi(1, 21)
	a.Add(1, 1, 1)
	a.Halt()
	s.LoadProgram(mustAsm(t, a))
	s.ResetCPU(mem.FlashBase)
	if _, ok := s.RunUntilHalt(10_000); !ok {
		t.Fatal("did not halt")
	}
	if s.CPU.Reg(1) != 42 {
		t.Errorf("r1 = %d", s.CPU.Reg(1))
	}
}

func TestCPUReachesPeripheralOverBridge(t *testing.T) {
	s := New(TC1797(), 1)
	tm, _ := s.AddTimer("t0", 1000, 0, 5, irq.ToCPU, 0)
	a := isa.NewAsm(mem.FlashBase)
	a.Movw(1, tm.Base+periph.RegPeriod)
	a.Movi(2, 123)
	a.Stw(2, 1, 0)
	a.Ldw(3, 1, 0)
	a.Halt()
	s.LoadProgram(mustAsm(t, a))
	s.ResetCPU(mem.FlashBase)
	if _, ok := s.RunUntilHalt(10_000); !ok {
		t.Fatal("did not halt")
	}
	if s.CPU.Reg(3) != 123 {
		t.Errorf("readback = %d", s.CPU.Reg(3))
	}
	if tm.Period != 123 {
		t.Errorf("timer period = %d", tm.Period)
	}
	if s.CPU.Counters().Get(sim.EvDPeriphAccess) != 2 {
		t.Errorf("periph accesses = %d, want 2", s.CPU.Counters().Get(sim.EvDPeriphAccess))
	}
}

func TestTimerInterruptDrivesHandler(t *testing.T) {
	s := New(TC1797(), 1)
	a := isa.NewAsm(mem.FlashBase)
	a.Movi(1, 1)
	a.Mtcr(isa.CsrICR, 1) // enable interrupts
	a.Movw(2, 100_000)
	a.Label("spin")
	a.Addi(3, 3, 1)
	a.Blt(3, 2, "spin")
	a.Halt()
	a.Label("isr")
	a.Addi(4, 4, 1)
	a.Rfe()
	p := mustAsm(t, a)
	var isr uint32
	for _, sym := range p.Syms {
		if sym.Name == "isr" {
			isr = sym.Addr
		}
	}
	s.AddTimer("t0", 5000, 0, 6, irq.ToCPU, isr)
	s.LoadProgram(p)
	s.ResetCPU(mem.FlashBase)
	cycles, ok := s.RunUntilHalt(10_000_000)
	if !ok {
		t.Fatal("did not halt")
	}
	want := cycles / 5000
	got := uint64(s.CPU.Reg(4))
	if got < want-2 || got > want+2 {
		t.Errorf("isr ran %d times in %d cycles, want about %d", got, cycles, want)
	}
}

func TestPCPChannelOffload(t *testing.T) {
	s := New(TC1797(), 1)
	// PCP channel program: increment a counter in PRAM, then end (RFE).
	pa := isa.NewAsm(mem.PRAMBase + 0x1000)
	pa.Movw(1, mem.PRAMBase+0x100)
	pa.Ldw(2, 1, 0)
	pa.Addi(2, 2, 1)
	pa.Stw(2, 1, 0)
	pa.Rfe()
	pprog := mustAsm(t, pa)
	s.LoadProgram(pprog)

	srn := s.Router.AddSRN("pcp-ch0", 3, irq.ToPCP, 0)
	s.PCP.AddChannel("ch0", srn, pprog.Base)

	// TriCore busy loop while PCP works.
	a := isa.NewAsm(mem.FlashBase)
	a.Movw(1, 30_000)
	a.Label("spin")
	a.Loop(1, "spin")
	a.Halt()
	s.LoadProgram(mustAsm(t, a))
	s.ResetCPU(mem.FlashBase)

	// Raise the PCP request a few times, spaced out.
	fired := 0
	s.Clock.Attach("firer", sim.TickerFunc(func(cy uint64) {
		if cy%2000 == 0 && fired < 5 {
			s.Router.Request(srn)
			fired++
		}
	}))
	if _, ok := s.RunUntilHalt(10_000_000); !ok {
		t.Fatal("did not halt")
	}
	if got := s.PRAM.Read32(mem.PRAMBase + 0x100); got != 5 {
		t.Errorf("PCP counter = %d, want 5", got)
	}
	if s.PCP.Counters().Get(sim.EvInstrExecuted) == 0 {
		t.Error("PCP executed no instructions")
	}
}

func TestDMAMovesPeripheralDataToSRAM(t *testing.T) {
	s := New(TC1797(), 1)
	can, canSRN := s.AddCAN("can0", 500, 16, 2, irq.ToDMA, 0)
	ch := &dma.Channel{Name: "rx", Src: can.Base + periph.RegResult,
		Dst: mem.SRAMBase + 0x100, SrcInc: 0, DstInc: 4, UnitBytes: 4, Count: 1}
	s.DMA.AddChannel(ch, canSRN)

	a := isa.NewAsm(mem.FlashBase)
	a.Movw(1, 50_000)
	a.Label("spin")
	a.Loop(1, "spin")
	a.Halt()
	s.LoadProgram(mustAsm(t, a))
	s.ResetCPU(mem.FlashBase)
	s.RunUntilHalt(10_000_000)

	if ch.Transfers == 0 {
		t.Fatal("DMA moved nothing")
	}
	if can.Received == 0 {
		t.Fatal("no CAN messages")
	}
	if s.DMA.Counters().Get(sim.EvDMATransfer) != ch.Transfers {
		t.Error("transfer counter mismatch")
	}
}

func TestEDTransparency(t *testing.T) {
	// F2/F4: the ED variant runs the identical application with identical
	// timing — the EEC only adds observability.
	run := func(cfg Config) (uint64, uint64) {
		s := New(cfg, 7)
		a := isa.NewAsm(mem.FlashBase)
		a.Movw(1, mem.SRAMBase)
		a.Movw(3, 2000)
		a.Label("body")
		a.Ldw(2, 1, 0)
		a.Addi(2, 2, 3)
		a.Stw(2, 1, 0)
		a.Loop(3, "body")
		a.Halt()
		s.LoadProgram(mustAsm(t, a))
		s.ResetCPU(mem.FlashBase)
		cy, ok := s.RunUntilHalt(10_000_000)
		if !ok {
			t.Fatal("did not halt")
		}
		return cy, s.CPU.Counters().Get(sim.EvInstrExecuted)
	}
	c1, i1 := run(TC1797())
	c2, i2 := run(TC1797().WithED())
	if c1 != c2 || i1 != i2 {
		t.Errorf("ED changes behaviour: prod (%d,%d) vs ED (%d,%d)", c1, i1, c2, i2)
	}
}

func TestCalibrationOverlayRedirects(t *testing.T) {
	s := New(TC1797().WithED(), 1)
	// Production table value in flash.
	tbl := uint32(mem.FlashBase + 0x10000)
	s.Flash.Load(tbl, []byte{11, 0, 0, 0})
	// Calibration value in EMEM overlay page 0.
	s.EMEM.RAM.Write32(mem.EMEMBase+0x40, 99)
	s.Overlay.MapPage(emem.Page{FlashAddr: tbl, EmemOff: 0x40, Size: 64})

	a := isa.NewAsm(mem.FlashBase)
	a.Movw(1, tbl)
	a.Ldw(2, 1, 0)
	a.Halt()
	s.LoadProgram(mustAsm(t, a))
	s.ResetCPU(mem.FlashBase)
	s.RunUntilHalt(100_000)
	if s.CPU.Reg(2) != 99 {
		t.Errorf("read %d, want overlay value 99", s.CPU.Reg(2))
	}
	if s.Overlay.Redirected != 1 {
		t.Errorf("redirected = %d", s.Overlay.Redirected)
	}
	// Remove the page: production value visible again.
	s.Overlay.ClearPages()
	s.ResetCPU(mem.FlashBase)
	s.CPU.Reset(mem.FlashBase, mem.DSPRBase+0x1000)
	s.RunUntilHalt(100_000)
	if s.CPU.Reg(2) != 11 {
		t.Errorf("read %d, want flash value 11", s.CPU.Reg(2))
	}
}

func TestPeekResolvesAllMemories(t *testing.T) {
	s := New(TC1797().WithED(), 1)
	s.Flash.Load(mem.FlashBase+4, []byte{1})
	s.SRAM.Write32(mem.SRAMBase+4, 2)
	s.PSPR.Write32(mem.PSPRBase+4, 3)
	s.DSPR.Write32(mem.DSPRBase+4, 4)
	s.PRAM.Write32(mem.PRAMBase+4, 5)
	s.EMEM.RAM.Write32(mem.EMEMBase+4, 6)
	buf := make([]byte, 1)
	for i, addr := range []uint32{mem.FlashBase + 4, mem.SRAMBase + 4, mem.PSPRBase + 4,
		mem.DSPRBase + 4, mem.PRAMBase + 4, mem.EMEMBase + 4} {
		s.Peek(addr, buf)
		if buf[0] != byte(i+1) {
			t.Errorf("peek %#x = %d, want %d", addr, buf[0], i+1)
		}
	}
	// Uncached views resolve to the same bytes.
	s.Peek(mem.FlashUncach+4, buf)
	if buf[0] != 1 {
		t.Error("uncached flash peek failed")
	}
}

func TestDeterministicAcrossRuns(t *testing.T) {
	run := func() uint64 {
		s := New(TC1797(), 42)
		s.AddCAN("can0", 300, 8, 2, irq.ToCPU, mem.FlashBase) // noise source
		a := isa.NewAsm(mem.FlashBase)
		a.Movw(1, 10_000)
		a.Label("spin")
		a.Loop(1, "spin")
		a.Halt()
		s.LoadProgram(mustAsm(t, a))
		s.ResetCPU(mem.FlashBase)
		cy, _ := s.RunUntilHalt(1_000_000)
		return cy
	}
	if run() != run() {
		t.Error("same seed must give identical runs")
	}
}

func TestSecondCoreRunsConcurrently(t *testing.T) {
	cfg := TC1797()
	cfg.SecondCore = true
	s := New(cfg, 1)

	// Core 0: count up in DSPR0. Core 1: count down in DSPR1.
	a0 := isa.NewAsm(mem.FlashBase)
	a0.Movw(1, mem.DSPRBase)
	a0.Movw(3, 5000)
	a0.Label("b")
	a0.Addi(2, 2, 1)
	a0.Stw(2, 1, 0)
	a0.Loop(3, "b")
	a0.Halt()
	p0 := mustAsm(t, a0)
	s.LoadProgram(p0)

	a1 := isa.NewAsm(mem.FlashBase + 0x10000)
	a1.Movw(1, mem.DSPR1Base)
	a1.Movw(3, 5000)
	a1.Label("b")
	a1.Addi(2, 2, 2)
	a1.Stw(2, 1, 0)
	a1.Loop(3, "b")
	a1.Halt()
	p1 := mustAsm(t, a1)
	s.LoadProgram(p1)

	s.ResetCPU(p0.Base)
	s.ResetCPU1(p1.Base)
	if !stepUntilBothHalted(s, 10_000_000) {
		t.Fatal("cores did not finish")
	}
	if got := s.DSPR.Read32(mem.DSPRBase); got != 5000 {
		t.Errorf("core0 result = %d", got)
	}
	if got := s.DSPR1.Read32(mem.DSPR1Base); got != 10000 {
		t.Errorf("core1 result = %d", got)
	}
	// Both cores fetched from the shared flash: every program-bus request
	// is one core's flash fetch, and core1 issued some of them.
	f0 := s.CPU.Counters().Get(sim.EvIFlashAccess)
	f1 := s.CPU1.Counters().Get(sim.EvIFlashAccess)
	if reqs := s.PLMB.Counters().Get(sim.EvBusRequest); f1 == 0 || reqs != f0+f1 {
		t.Errorf("program bus requests = %d, core fetches = %d + %d", reqs, f0, f1)
	}
}

func TestSecondCoreBusContention(t *testing.T) {
	// Both cores hammer the same SRAM: the shared data bus must serialize
	// them and record contention — visible to the MCDS bus observation.
	cfg := TC1797()
	cfg.SecondCore = true
	s := New(cfg, 1)
	mk := func(base, target uint32) *isa.Program {
		a := isa.NewAsm(base)
		a.Movw(1, target)
		a.Movw(3, 3000)
		a.Label("b")
		a.Ldw(2, 1, 0)
		a.Stw(2, 1, 0)
		a.Loop(3, "b")
		a.Halt()
		return mustAsm(t, a)
	}
	p0 := mk(mem.FlashBase, mem.SRAMBase)
	p1 := mk(mem.FlashBase+0x10000, mem.SRAMBase+0x100)
	s.LoadProgram(p0)
	s.LoadProgram(p1)
	s.ResetCPU(p0.Base)
	s.ResetCPU1(p1.Base)
	if !stepUntilBothHalted(s, 10_000_000) {
		t.Fatal("cores did not finish")
	}
	if s.DLMB.Counters().Get(sim.EvBusContention) == 0 {
		t.Error("no bus contention between the two cores")
	}
}

func TestSecondCoreInterrupts(t *testing.T) {
	cfg := TC1797()
	cfg.SecondCore = true
	s := New(cfg, 1)
	a := isa.NewAsm(mem.FlashBase + 0x20000)
	a.Movi(1, 1)
	a.Mtcr(isa.CsrICR, 1)
	a.Movw(3, 40_000)
	a.Label("spin")
	a.Loop(3, "spin")
	a.Halt()
	a.Label("isr")
	a.Addi(4, 4, 1)
	a.Rfe()
	p := mustAsm(t, a)
	s.LoadProgram(p)
	var isr uint32
	for _, sy := range p.Syms {
		if sy.Name == "isr" {
			isr = sy.Addr
		}
	}
	s.AddTimer("t1", 5000, 0, 4, irq.ToCPU1, isr)
	// Core 0 idles at a halt.
	a0 := isa.NewAsm(mem.FlashBase)
	a0.Halt()
	p0 := mustAsm(t, a0)
	s.LoadProgram(p0)
	s.ResetCPU(p0.Base)
	s.ResetCPU1(p.Base)
	s.CPU1.StopOnHalt()
	if _, ok := s.Clock.RunToStop(10_000_000); !ok {
		t.Fatal("core1 did not halt")
	}
	if s.CPU1.Reg(4) == 0 {
		t.Error("core1 ISR never ran")
	}
	if s.CPU.Counters().Get(sim.EvInterruptEntry) != 0 {
		t.Error("core0 wrongly took core1's interrupt")
	}
}

// TestRandomConfigsRun is a robustness property: any sane configuration
// point in the architecture-option space must build and execute a workload
// without panics or hangs (the evaluation driver explores this space).
func TestRandomConfigsRun(t *testing.T) {
	rng := sim.NewRNG(99)
	for i := 0; i < 12; i++ {
		cfg := TC1797()
		cfg.Flash.WaitStates = uint64(rng.Range(1, 12))
		cfg.Flash.CodeBuffers = rng.Range(1, 8)
		cfg.Flash.DataBuffers = rng.Range(1, 8)
		cfg.Flash.Prefetch = rng.Bool(0.5)
		cfg.Flash.Policy = flash.ArbPolicy(rng.Intn(3))
		cfg.SRAMLatency = uint64(rng.Range(0, 6))
		if rng.Bool(0.3) {
			cfg.ICache = nil
		} else {
			ic := *cfg.ICache
			ic.Size = uint32(4<<10) << uint(rng.Intn(3))
			cfg.ICache = &ic
		}
		if rng.Bool(0.4) {
			cfg.DCache = nil
		}
		cfg.SecondCore = rng.Bool(0.3)
		if rng.Bool(0.5) {
			cfg = cfg.WithED()
		}
		s := New(cfg, uint64(i))
		a := isa.NewAsm(mem.FlashBase)
		a.Movw(1, mem.SRAMBase)
		a.Movw(3, 500)
		a.Label("b")
		a.Ldw(2, 1, 0)
		a.Addi(2, 2, 1)
		a.Stw(2, 1, 0)
		a.Loop(3, "b")
		a.Halt()
		s.LoadProgram(mustAsm(t, a))
		s.ResetCPU(mem.FlashBase)
		if _, ok := s.RunUntilHalt(10_000_000); !ok {
			t.Fatalf("config %d hung: %+v", i, cfg)
		}
		if got := s.SRAM.Read32(mem.SRAMBase); got != 500 {
			t.Fatalf("config %d wrong result %d", i, got)
		}
	}
}

func TestSoCHelpers(t *testing.T) {
	s := New(TC1797().WithED(), 1)
	// AddADC and AddFlexRay register, map and tick.
	sig := periph.NewSignal(100, 200, 10, 0, s.rng)
	adc, _ := s.AddADC("adc0", 50, 0, sig, 9, irq.ToCPU, 0)
	fr, _ := s.AddFlexRay("fr0", 1000, 10, []int{1}, 5, 4, 10, irq.ToCPU, 0)
	s.Clock.Run(3000)
	if adc.Conversions == 0 {
		t.Error("ADC idle")
	}
	if fr.RxFrames == 0 {
		t.Error("FlexRay idle")
	}
	// Cache invalidation drops resident lines.
	a := isa.NewAsm(mem.FlashBase)
	a.Movw(1, mem.FlashBase+0x1000)
	a.Ldw(2, 1, 0)
	a.Halt()
	s.LoadProgram(mustAsm(t, a))
	s.ResetCPU(mem.FlashBase)
	s.RunUntilHalt(100_000)
	before := s.CPU.Counters().Get(sim.EvDCacheMiss)
	s.InvalidateCaches()
	s.ResetCPU(mem.FlashBase)
	s.RunUntilHalt(100_000)
	if after := s.CPU.Counters().Get(sim.EvDCacheMiss); after <= before {
		t.Error("invalidate had no effect on the D-cache")
	}
}

func TestLoadProgramIntoPRAMAndPSPR(t *testing.T) {
	s := New(TC1797(), 1)
	// PSPR-resident program.
	a := isa.NewAsm(mem.PSPRBase)
	a.Movi(1, 7)
	a.Halt()
	s.LoadProgram(mustAsm(t, a))
	s.ResetCPU(mem.PSPRBase)
	s.RunUntilHalt(1000)
	if s.CPU.Reg(1) != 7 {
		t.Error("PSPR program failed")
	}
	// PRAM-resident program bytes land in PRAM.
	pa := isa.NewAsm(mem.PRAMBase + 0x100)
	pa.Rfe()
	pp := mustAsm(t, pa)
	s.LoadProgram(pp)
	if s.PRAM.Read32(mem.PRAMBase+0x100) != pp.Words[0] {
		t.Error("PRAM load failed")
	}
	// Unloadable base panics.
	defer func() {
		if recover() == nil {
			t.Error("unmappable program must panic")
		}
	}()
	bad := isa.NewAsm(0x1000_0000)
	bad.Halt()
	s.LoadProgram(mustAsm(t, bad))
}

func TestResetCPU1WithoutSecondCorePanics(t *testing.T) {
	s := New(TC1797(), 1)
	defer func() {
		if recover() == nil {
			t.Error("ResetCPU1 without second core must panic")
		}
	}()
	s.ResetCPU1(mem.FlashBase)
}

// stepUntilBothHalted steps s cycle by cycle until both cores have halted
// or limit cycles have run: a condition over two cores, which no single
// core's stop watch expresses.
func stepUntilBothHalted(s *SoC, limit uint64) bool {
	for n := uint64(0); n < limit; n++ {
		if s.CPU.Halted() && s.CPU1.Halted() {
			return true
		}
		s.Clock.Step()
	}
	return s.CPU.Halted() && s.CPU1.Halted()
}
