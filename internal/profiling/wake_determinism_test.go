package profiling

import (
	"bytes"
	"testing"

	"repro/internal/fault"
	"repro/internal/sim"
	"repro/internal/soc"
	"repro/internal/workload"
)

// TestWakeSchedulerReportDeterminism is the kernel-level determinism
// cross-check demanded by the Sleeper contract: a full SoC with the ED
// observation path, a fault scenario and the whole trace pipeline must
// produce a byte-identical RunReport whether the quiescence scheduler is
// on (the default) or force-disabled (every ticker dispatched every
// cycle). Any drift here means a Sleeper computed a wrong wake cycle or a
// component with per-cycle side effects was allowed to sleep. The
// injector's window counters and the DAP's link-down and retry counts
// must also agree after every RunCancelEvery-cycle chunk, where a
// session publishes them. "flaky-cable", "fifo-jam" and the k=v plans
// sleep the injector between window draws and the DAP through its down
// windows; "jam=0.01" (one-cycle jams) and the stall+jam plan put a
// jam's close on the cycle right after a draw; "everything" keeps the
// injector on every cycle (soft errors) and runs the Degrader's mid-cycle
// resolution changes against a sleeping MCDS.
func TestWakeSchedulerReportDeterminism(t *testing.T) {
	run := func(faults string, degrade bool, scheduled bool) (report []byte, counts [][6]uint64) {
		spec := stdSpec()
		s, app := buildApp(t, soc.TC1797().WithED(), spec)
		s.Clock.SetWakeScheduling(scheduled)
		plan, err := fault.Parse(faults, spec.Seed)
		if err != nil {
			t.Fatal(err)
		}
		sp := Spec{
			Resolution: 500,
			Params:     StandardParams(),
			DAP:        true,
			Framed:     true,
			Fault:      &plan,
		}
		if degrade {
			sp.Degrade = &DegradePolicy{}
		}
		sess := NewSession(s, sp)
		// The always-on run also counts the down cycles one by one, the
		// reference for the DAP's count of the windows it sleeps through.
		var down uint64
		if !scheduled {
			s.Clock.Attach("down-reference", sim.TickerFunc(func(c uint64) {
				if sess.Injector.UpAt(c) > c {
					down++
				}
			}))
		}
		snap := func() {
			in, d := sess.Injector, sess.DAP
			counts = append(counts, [6]uint64{in.Stalls, in.StallCycles, in.Jams, in.JamCycles,
				d.LinkDownCycles(), d.Retries})
			if !scheduled && d.LinkDownCycles() != down {
				t.Fatalf("%s: after %d cycles LinkDownCycles = %d, the link was down on %d",
					faults, s.Clock.Cycle(), d.LinkDownCycles(), down)
			}
		}
		for done := uint64(0); done < 600_000; done += RunCancelEvery {
			mustRun(t, sess, app, RunCancelEvery)
			snap()
		}
		p, err := sess.Result(spec.Name)
		if err != nil {
			t.Fatal(err)
		}
		snap()
		var buf bytes.Buffer
		if err := sess.RunReport(p, spec.Seed).WriteJSON(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes(), counts
	}
	for _, c := range []struct {
		faults  string
		degrade bool
	}{
		{"noisy-link", false},
		{"flaky-cable", false},
		{"fifo-jam", false},
		{"jam=0.001,jammin=50,jammax=400", false},
		{"jam=0.01", false},
		{"stall=0.002,stallmin=50,stallmax=400,jam=0.002,jammin=50,jammax=400", false},
		{"everything", true},
	} {
		on, onCounts := run(c.faults, c.degrade, true)
		off, offCounts := run(c.faults, c.degrade, false)
		if !bytes.Equal(on, off) {
			t.Fatalf("%s: RunReport differs between scheduler modes:\n--- scheduled ---\n%s\n--- always-on ---\n%s", c.faults, on, off)
		}
		for i := range offCounts {
			if onCounts[i] != offCounts[i] {
				t.Fatalf("%s: after chunk %d, [stalls stall-cycles jams jam-cycles link-down retries] = %v scheduled, %v always-on",
					c.faults, i, onCounts[i], offCounts[i])
			}
		}
		last := offCounts[len(offCounts)-1]
		if c.faults != "noisy-link" && last[0]+last[2] == 0 {
			t.Errorf("%s: no stall or jam window opened; the cross-check saw no window", c.faults)
		}
	}
}

// TestWakeSchedulerDeterminismAcrossMixes widens the cross-check over the
// named workload mixes (different periph populations and periods) on the
// cheap no-DAP path.
func TestWakeSchedulerDeterminismAcrossMixes(t *testing.T) {
	for _, mix := range []string{"engine", "canheavy", "lean", "dmaflow", "branchy"} {
		mix := mix
		t.Run(mix, func(t *testing.T) {
			run := func(scheduled bool) []byte {
				spec, ok := workload.Mix(mix, 17)
				if !ok {
					t.Fatalf("unknown mix %q", mix)
				}
				s := soc.New(soc.TC1797().WithED(), 17)
				s.Clock.SetWakeScheduling(scheduled)
				app, err := workload.Build(s, spec)
				if err != nil {
					t.Fatal(err)
				}
				sess := NewSession(s, Spec{Resolution: 500, Params: StandardParams()})
				mustRun(t, sess, app, 300_000)
				p, err := sess.Result(spec.Name)
				if err != nil {
					t.Fatal(err)
				}
				var buf bytes.Buffer
				if err := sess.RunReport(p, 17).WriteJSON(&buf); err != nil {
					t.Fatal(err)
				}
				return buf.Bytes()
			}
			if on, off := run(true), run(false); !bytes.Equal(on, off) {
				t.Fatalf("mix %s: RunReport differs between scheduler modes", mix)
			}
		})
	}
}
