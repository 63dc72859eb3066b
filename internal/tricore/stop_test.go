package tricore

import (
	"testing"

	"repro/internal/isa"
	"repro/internal/mem"
	"repro/internal/sim"
)

// countingLoop counts iterations in r9 around a flash-data load, a
// dependent add (load-use stall) and a store 0x7FC bytes past the load,
// clear of the code and of the words still to be loaded, then halts.
func countingLoop(t *testing.T) *isa.Program {
	t.Helper()
	a := isa.NewAsm(mem.FlashBase)
	a.Movw(1, mem.FlashBase+0x800)
	a.Movw(3, 200)
	a.Label("b")
	a.Ldw(2, 1, 0)
	a.Addi(2, 2, 3)
	a.Stw(2, 1, 0x7FC)
	a.Addi(9, 9, 1)
	a.Addi(1, 1, 4)
	a.Loop(3, "b")
	a.Halt()
	return mustAsm(t, a)
}

// stepUntil is the per-cycle reference a stop watch replaces: check the
// predicate at every cycle boundary, Step otherwise.
func stepUntil(c *sim.Clock, done func() bool, limit uint64) (uint64, bool) {
	for n := uint64(0); n < limit; n++ {
		if done() {
			return n, true
		}
		c.Step()
	}
	return limit, done()
}

func TestStopAtRegMatchesPerCycleReference(t *testing.T) {
	const limit = 100_000
	// 0 is satisfied when armed; 1000 is never reached (the core halts
	// first and the run hits the limit).
	for _, v := range []uint32{0, 1, 7, 150, 200, 1000} {
		for _, opt := range []rigOpt{{icache: true, dcache: true, prefetch: true}, {flashWS: 3}} {
			for _, block := range []bool{false, true} {
				run := func(watch bool) (uint64, bool, sim.Counters) {
					r := newRigQuiet(t, opt)
					if block {
						r.enableDecoder()
					}
					r.load(t, countingLoop(t))
					if watch {
						r.cpu.StopAtReg(9, v)
						n, ok := r.clock.RunToStop(limit)
						return n, ok, *r.cpu.Counters()
					}
					n, ok := stepUntil(r.clock, func() bool { return r.cpu.Reg(9) >= v }, limit)
					return n, ok, *r.cpu.Counters()
				}
				n, ok, ctrs := run(true)
				refN, refOK, refCtrs := run(false)
				if n != refN || ok != refOK || ctrs != refCtrs {
					t.Fatalf("v=%d opt=%+v block=%v: watch ran %d (ok=%v), reference %d (ok=%v); counters equal: %v",
						v, opt, block, n, ok, refN, refOK, ctrs == refCtrs)
				}
				if v == 0 && n != 0 || v == 1000 && (ok || n != limit) {
					t.Fatalf("v=%d: RunToStop = %d, %v", v, n, ok)
				}
			}
		}
	}
}

func TestStopOnDebugBreakFromLaterTicker(t *testing.T) {
	// A debug break raised by a ticker stepped after the core (the MCDS
	// break action) ends the run at the end of that cycle.
	r := newRig(t, rigOpt{})
	r.clock.Attach("breaker", sim.TickerFunc(func(cy uint64) {
		if cy == 99 {
			r.cpu.DebugBreak()
		}
	}))
	r.load(t, countingLoop(t))
	r.cpu.StopOnHalt()
	if n, ok := r.clock.RunToStop(10_000); n != 100 || !ok {
		t.Fatalf("RunToStop = %d, %v; want 100, true", n, ok)
	}
	// The watch fired once: the halted core is already stopped on, so a
	// fresh watch stops the next run at once.
	r.cpu.StopOnHalt()
	if n, ok := r.clock.RunToStop(10_000); n != 0 || !ok {
		t.Fatalf("re-armed on a halted core: RunToStop = %d, %v; want 0, true", n, ok)
	}
}

func TestDisarmStop(t *testing.T) {
	r := newRig(t, rigOpt{})
	r.load(t, countingLoop(t))
	r.cpu.StopAtReg(9, 3)
	r.cpu.DisarmStop()
	if n, ok := r.clock.RunToStop(500); n != 500 || ok {
		t.Fatalf("disarmed watch: RunToStop = %d, %v; want 500, false", n, ok)
	}
}
