package profiling

import (
	"bytes"
	"testing"

	"repro/internal/fault"
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
// "everything" plan opens link-down windows on a sleeping DAP and runs
// the Degrader's mid-cycle resolution changes against a sleeping MCDS.
func TestWakeSchedulerReportDeterminism(t *testing.T) {
	run := func(faults string, degrade bool, scheduled bool) []byte {
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
		mustRun(t, sess, app, 600_000)
		p, err := sess.Result(spec.Name)
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := sess.RunReport(p, spec.Seed).WriteJSON(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	for _, c := range []struct {
		faults  string
		degrade bool
	}{{"noisy-link", false}, {"everything", true}} {
		on := run(c.faults, c.degrade, true)
		off := run(c.faults, c.degrade, false)
		if !bytes.Equal(on, off) {
			t.Fatalf("%s: RunReport differs between scheduler modes:\n--- scheduled ---\n%s\n--- always-on ---\n%s", c.faults, on, off)
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
