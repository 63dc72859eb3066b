package profiling

import (
	"bytes"
	"testing"

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

// cleanEngineTicks runs the clean engine cell (TC1797ED, seed 1, standard
// and PCP parameters at resolution 1000, DAP drain) for 300 000 cycles and
// returns the Ticks delivered to the MCDS and the DAP, and the RunReport.
func cleanEngineTicks(t *testing.T, scheduled bool) (mcdsTicks, dapTicks uint64, report []byte) {
	t.Helper()
	spec, _ := workload.Mix("engine", 1)
	s := soc.New(soc.TC1797().WithED(), 1)
	s.Clock.SetWakeScheduling(scheduled)
	app, err := workload.Build(s, spec)
	if err != nil {
		t.Fatal(err)
	}
	counted := map[string]*tickCounter{}
	sess := newSession(s, Spec{Resolution: 1000, Params: append(StandardParams(), PCPParams()...), DAP: true},
		func(name string, tk sim.Ticker) {
			if w, ok := tk.(wakeable); ok {
				c := &tickCounter{wakeable: w}
				counted[name] = c
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
	return counted["mcds"].ticks, counted["dap"].ticks, buf.Bytes()
}

// TestObserversSleepBetweenEvents counts the Ticks a clean profiling
// session delivers to its observers: the MCDS wakes only near window
// closes and the DAP only on byte drains, while the report stays the one
// the always-on schedule produces.
func TestObserversSleepBetweenEvents(t *testing.T) {
	const cycles = 300_000
	mcdsOn, dapOn, on := cleanEngineTicks(t, true)
	mcdsOff, dapOff, off := cleanEngineTicks(t, false)
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
