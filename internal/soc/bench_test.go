package soc

import (
	"fmt"
	"testing"

	"repro/internal/irq"
	"repro/internal/isa"
	"repro/internal/mem"
	"repro/internal/periph"
	"repro/internal/sim"
)

// BenchmarkSimThroughput measures raw simulation speed (simulated cycles
// per host second) on a flash-resident mixed loop — the figure that
// determines how large a fleet evaluation is practical.
func BenchmarkSimThroughput(b *testing.B) {
	s := New(TC1797(), 1)
	a := isa.NewAsm(mem.FlashBase)
	a.Movw(1, mem.DSPRBase)
	a.Movw(3, 1<<30)
	a.Label("body")
	a.Ldw(2, 1, 0)
	a.Addi(2, 2, 1)
	a.Stw(2, 1, 0)
	a.Loop(3, "body")
	a.Halt()
	p, err := a.Assemble()
	if err != nil {
		b.Fatal(err)
	}
	s.LoadProgram(p)
	s.ResetCPU(p.Base)
	b.ResetTimer()
	s.Clock.Run(uint64(b.N))
	b.StopTimer()
	c := s.CPU.Counters()
	b.ReportMetric(float64(c.Get(sim.EvInstrExecuted))/float64(b.N), "instr/cycle")
}

// periphHeavySoC assembles a TC1797 with a fleet-scale peripheral
// complement — 16 timers, 8 ADCs, 4 CAN nodes, 2 FlexRay nodes on sparse
// schedules — plus the usual flash-resident CPU loop. This is the mix the
// wake scheduler targets: most peripherals are idle on most cycles, so
// the always-on kernel burns its time delivering no-op Ticks.
func periphHeavySoC(b testing.TB) *SoC {
	b.Helper()
	s := New(TC1797(), 1)
	prio := uint32(20)
	for i := 0; i < 16; i++ {
		s.AddTimer(fmt.Sprintf("bt%d", i), 2000+421*uint64(i), 137*uint64(i), prio, irq.ToCPU, 0)
		prio++
	}
	for i := 0; i < 8; i++ {
		sig := periph.NewSignal(0, 4095, 997, 10, s.rng.Fork(uint64(0x51+i)))
		s.AddADC(fmt.Sprintf("ba%d", i), 3000+389*uint64(i), 71*uint64(i), sig, prio, irq.ToCPU, 0)
		prio++
	}
	for i := 0; i < 4; i++ {
		s.AddCAN(fmt.Sprintf("bc%d", i), 4000+513*uint64(i), 32, prio, irq.ToCPU, 0)
		prio++
	}
	for i := 0; i < 2; i++ {
		s.AddFlexRay(fmt.Sprintf("bf%d", i), 8000, 8, []int{1, 5}, 3, 16, prio, irq.ToCPU, 0)
		prio++
	}

	a := isa.NewAsm(mem.FlashBase)
	a.Movw(1, mem.DSPRBase)
	a.Movw(3, 1<<30)
	a.Label("body")
	a.Ldw(2, 1, 0)
	a.Addi(2, 2, 1)
	a.Stw(2, 1, 0)
	a.Loop(3, "body")
	a.Halt()
	p, err := a.Assemble()
	if err != nil {
		b.Fatal(err)
	}
	s.LoadProgram(p)
	s.ResetCPU(p.Base)
	return s
}

func benchHotLoop(b *testing.B, block bool) {
	s := periphHeavySoC(b)
	s.SetBlockDecode(block)
	b.ResetTimer()
	s.Clock.Run(uint64(b.N))
	b.StopTimer()
	b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "simcycles/s")
}

// BenchmarkSoCHotLoop reports simulated cycles per host second on the
// periph-heavy mix with the wake scheduler and chained block dispatch on
// (the defaults). Its NoBlock twin runs the identical system with
// per-word decode forced, so one `go test -bench SoCHotLoop` run carries
// its own before/after comparison for block dispatch. Count tests guard
// the wake scheduler instead: TestSetWakeSchedulingRoundTrip,
// TestSleeperSkipsIdleCycles and TestSleepingCountersMatchPerCycleReference.
func BenchmarkSoCHotLoop(b *testing.B)        { benchHotLoop(b, true) }
func BenchmarkSoCHotLoopNoBlock(b *testing.B) { benchHotLoop(b, false) }

// branchySoC builds the branch-proof acceptance system: a ring of
// single-instruction blocks closed by zero-overhead LOOP back edges, so
// nearly every simulated cycle crosses a block boundary via taken control
// flow. Block-entry cost dominates: each ring block has exactly one
// successor, the best case for the bounded chain slots and the worst case
// for the PC-keyed map.
// The ring lives in the program scratchpad — the paper's flash-avoidance
// mapping for hot control code — so fetch timing stays out of the way of
// what this benchmark isolates.
func branchySoC(b testing.TB) *SoC {
	b.Helper()
	s := New(TC1797(), 1)
	// Ring size: enough distinct blocks that the PC-keyed map works at a
	// realistic branchy-code footprint (hundreds of live blocks) instead
	// of a toy L1-resident handful, while staying well under the decoder's
	// DefaultBlockCacheSize so the block cache never thrashes.
	const ring = 500
	a := isa.NewAsm(mem.PSPRBase)
	a.Movw(3, 1<<30)
	a.J(fmt.Sprintf("ring%d", ring))
	// Restart edge: the only forward hop per revolution.
	a.Label("ring0")
	a.J(fmt.Sprintf("ring%d", ring))
	// LOOP branches backward, so the ring descends ringN -> ... -> ring0.
	for i := 1; i <= ring; i++ {
		a.Label(fmt.Sprintf("ring%d", i))
		a.Loop(3, fmt.Sprintf("ring%d", i-1))
	}
	a.Halt() // counter exhausted: the last LOOP falls through here
	p, err := a.Assemble()
	if err != nil {
		b.Fatal(err)
	}
	s.LoadProgram(p)
	s.ResetCPU(p.Base)
	return s
}

func benchBranchy(b *testing.B, block bool) {
	s := branchySoC(b)
	s.SetBlockDecode(block)
	b.ResetTimer()
	s.Clock.Run(uint64(b.N))
	b.StopTimer()
	b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "simcycles/s")
}

// BenchmarkSoCBranchy is the PR10 acceptance benchmark: the branch-heavy
// kernel under chained dispatch, with a twin pinning the per-word
// reference so one run carries the chaining delta.
func BenchmarkSoCBranchy(b *testing.B)        { benchBranchy(b, true) }
func BenchmarkSoCBranchyNoBlock(b *testing.B) { benchBranchy(b, false) }

// BenchmarkSoCBuild measures system assembly cost (per evaluation run).
func BenchmarkSoCBuild(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		s := New(TC1797().WithED(), uint64(i))
		if s.CPU == nil {
			b.Fatal("no CPU")
		}
	}
}
