package profiling

import (
	"bytes"
	"testing"

	"repro/internal/fault"
	"repro/internal/sim"
	"repro/internal/soc"
	"repro/internal/tricore"
	"repro/internal/workload"
)

// wakeable is what the clock sees of a sleeping observer.
type wakeable interface {
	sim.Sleeper
	sim.WakeBinder
}

// tickCounter wraps a sleeping observer and counts the Ticks the clock
// delivers to it.
type tickCounter struct {
	wakeable
	ticks uint64
}

func (c *tickCounter) Tick(cycle uint64) {
	c.ticks++
	c.wakeable.Tick(cycle)
}

// plainCounter counts the Ticks of a component that never sleeps.
type plainCounter struct {
	sim.Ticker
	ticks uint64
}

func (c *plainCounter) Tick(cycle uint64) {
	c.ticks++
	c.Ticker.Tick(cycle)
}

// engineTicks runs the engine cell (TC1797ED, seed 1, standard and PCP
// parameters at resolution 1000, DAP drain) for 300 000 cycles under the
// fault plan faults ("" for none) and returns the Ticks delivered to each
// session component by name, and the RunReport.
func engineTicks(t *testing.T, scheduled bool, faults string) (map[string]uint64, []byte) {
	t.Helper()
	spec, _ := workload.Mix("engine", 1)
	s := soc.New(soc.TC1797().WithED(), 1)
	s.Clock.SetWakeScheduling(scheduled)
	app, err := workload.Build(s, spec)
	if err != nil {
		t.Fatal(err)
	}
	sp := Spec{Resolution: 1000, Params: append(StandardParams(), PCPParams()...), DAP: true}
	if faults != "" {
		plan, err := fault.Parse(faults, 1)
		if err != nil {
			t.Fatal(err)
		}
		sp.Fault = &plan
	}
	counted := map[string]*uint64{}
	sess := newSession(s, sp, func(name string, tk sim.Ticker) {
		if w, ok := tk.(wakeable); ok {
			c := &tickCounter{wakeable: w}
			counted[name] = &c.ticks
			tk = c
		} else {
			c := &plainCounter{Ticker: tk}
			counted[name] = &c.ticks
			tk = c
		}
		s.Clock.Attach(name, tk)
	})
	mustRun(t, sess, app, 300_000)
	p, err := sess.Result(spec.Name)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := sess.RunReport(p, 1).WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	ticks := map[string]uint64{}
	for name, n := range counted {
		ticks[name] = *n
	}
	return ticks, buf.Bytes()
}

// TestObserversSleepBetweenEvents counts the Ticks a clean profiling
// session delivers to its observers: the MCDS wakes only near window
// closes and the DAP only on byte drains, while the report stays the one
// the always-on schedule produces.
func TestObserversSleepBetweenEvents(t *testing.T) {
	const cycles = 300_000
	ticksOn, on := engineTicks(t, true, "")
	ticksOff, off := engineTicks(t, false, "")
	mcdsOn, dapOn := ticksOn["mcds"], ticksOn["dap"]
	mcdsOff, dapOff := ticksOff["mcds"], ticksOff["dap"]
	t.Logf("scheduled: mcds %d (%.2f %%), dap %d (%.2f %%)",
		mcdsOn, 100*float64(mcdsOn)/cycles, dapOn, 100*float64(dapOn)/cycles)
	if mcdsOff != cycles || dapOff != cycles {
		t.Errorf("always-on schedule ticked mcds %d and dap %d times, want %d each", mcdsOff, dapOff, cycles)
	}
	if mcdsOn > cycles*3/100 || dapOn > cycles*6/100 {
		t.Errorf("scheduled: mcds ticked on %d and dap on %d of %d cycles, want at most 3 %% and 6 %%",
			mcdsOn, dapOn, cycles)
	}
	// The exact counts are deterministic; a change means the wake
	// schedule changed.
	if mcdsOn != 5109 || dapOn != 13290 {
		t.Errorf("scheduled: mcds ticked %d and dap %d times, pinned 5109 and 13290", mcdsOn, dapOn)
	}
	if !bytes.Equal(on, off) {
		t.Error("RunReport differs between wake-scheduler modes")
	}
}

// TestFaultWindowsSleep counts the Ticks a flaky-cable session delivers
// to its fault injector and DAP: the injector wakes only where a stall
// window opens (and at least every 2^16 cycles), and the DAP sleeps
// through every down window. A soft-error plan still ticks the injector
// on every cycle: its draw is gated on the ring level.
func TestFaultWindowsSleep(t *testing.T) {
	const cycles = 300_000
	on, rep := engineTicks(t, true, "flaky-cable")
	off, repOff := engineTicks(t, false, "flaky-cable")
	t.Logf("flaky-cable scheduled: fault %d, dap %d of %d cycles", on["fault"], on["dap"], cycles)
	if off["fault"] != cycles || off["dap"] != cycles {
		t.Errorf("always-on schedule ticked fault %d and dap %d times, want %d each", off["fault"], off["dap"], cycles)
	}
	if on["fault"] > cycles/1000 || on["dap"] > cycles*6/100 {
		t.Errorf("scheduled: fault ticked on %d and dap on %d of %d cycles, want at most 0.1 %% and 6 %%",
			on["fault"], on["dap"], cycles)
	}
	// The exact counts are deterministic; a change means the wake
	// schedule changed.
	if on["fault"] != 47 || on["dap"] != 8169 {
		t.Errorf("scheduled: fault ticked %d and dap %d times, pinned 47 and 8169", on["fault"], on["dap"])
	}
	if !bytes.Equal(rep, repOff) {
		t.Error("RunReport differs between wake-scheduler modes")
	}
	flips, _ := engineTicks(t, true, "flip=0.0005")
	if flips["fault"] != cycles {
		t.Errorf("soft-error plan: fault ticked %d times, want every one of %d cycles", flips["fault"], cycles)
	}
}

// TestBasisRiseBounds checks the bounds the MCDS wake schedule rests on
// over the five product mixes: no cycle raises a core's EvCycle by more
// than one or its EvInstrExecuted by more than tricore.MaxIssueWidth.
func TestBasisRiseBounds(t *testing.T) {
	for _, mix := range []string{"engine", "tableheavy", "canheavy", "dmaflow", "branchy"} {
		spec, ok := workload.Mix(mix, 1)
		if !ok {
			t.Fatalf("unknown mix %q", mix)
		}
		s := soc.New(soc.TC1797().WithED(), 1)
		app, err := workload.Build(s, spec)
		if err != nil {
			t.Fatal(err)
		}
		cores := []*sim.Counters{s.CPU.Counters(), s.PCP.Counters()}
		prev := make([]sim.Counters, len(cores))
		var instr, cycle uint64 // largest one-cycle rises seen
		s.Clock.Attach("bounds", sim.TickerFunc(func(uint64) {
			for i, c := range cores {
				instr = max(instr, c[sim.EvInstrExecuted]-prev[i][sim.EvInstrExecuted])
				cycle = max(cycle, c[sim.EvCycle]-prev[i][sim.EvCycle])
				prev[i] = *c
			}
		}))
		app.RunFor(200_000)
		if instr > tricore.MaxIssueWidth || cycle > 1 {
			t.Errorf("%s: a cycle raised EvInstrExecuted by %d (bound %d) and EvCycle by %d (bound 1)",
				mix, instr, tricore.MaxIssueWidth, cycle)
		}
		if instr < 2 {
			t.Errorf("%s: at most %d instructions retired in any cycle; the bound went untested", mix, instr)
		}
	}
}
