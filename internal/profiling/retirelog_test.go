package profiling

import (
	"testing"

	"repro/internal/mcds"
	"repro/internal/sim"
	"repro/internal/soc"
	"repro/internal/tmsg"
	"repro/internal/tricore"
	"repro/internal/workload"
)

// retireRig is a profiling session whose emitted messages are mirrored,
// plus an unobserved twin of the same SoC and application that logs every
// retirement: the ground truth the flow trace is checked against.
type retireRig struct {
	s, twin      *soc.SoC
	app, twinApp *workload.App
	sess         *Session
	msgs         []tmsg.Msg
}

func newRetireRig(t *testing.T) *retireRig {
	t.Helper()
	r := &retireRig{}
	r.s, r.app = buildApp(t, soc.TC1797().WithED(), stdSpec())
	r.twin, r.twinApp = buildApp(t, soc.TC1797().WithED(), stdSpec())
	r.twin.CPU.TraceEnabled = true
	r.sess = NewSession(r.s, Spec{Resolution: 1000, Params: StandardParams()})
	r.sess.MCDS.OnEmit = func(m *tmsg.Msg) { r.msgs = append(r.msgs, *m) }
	return r
}

// run advances the session and the twin by n cycles and returns the
// twin's retirements of that span.
func (r *retireRig) run(t *testing.T, n uint64) []tricore.Retired {
	t.Helper()
	mustRun(t, r.sess, r.app, n)
	r.twinApp.RunFor(n)
	return append([]tricore.Retired(nil), r.twin.CPU.DrainRetired()...)
}

// firstSync returns the first program-flow anchor of the TriCore source.
func (r *retireRig) firstSync(t *testing.T) tmsg.Msg {
	t.Helper()
	for _, m := range r.msgs {
		if m.Src == 0 && m.Kind == tmsg.KindSync {
			return m
		}
	}
	t.Fatal("no flow trace anchor for the TriCore")
	return tmsg.Msg{}
}

// checkFlow requires the flow trace to start at want and to reconstruct
// the ground-truth instruction sequence from there, up to the first
// interrupt entry (a change of flow the flow messages do not carry).
func (r *retireRig) checkFlow(t *testing.T, want []tricore.Retired) {
	t.Helper()
	if sy := r.firstSync(t); sy.Cycle != want[0].Cycle || sy.PC != want[0].PC {
		t.Fatalf("flow trace starts at cycle %d pc %#x, first retirement since the switch is cycle %d pc %#x",
			sy.Cycle, sy.PC, want[0].Cycle, want[0].PC)
	}
	n := 1
	for ; n < len(want); n++ {
		next := want[n-1].PC + 4
		if want[n-1].Taken {
			next = want[n-1].Target
		}
		if want[n].PC != next {
			break
		}
	}
	pcs := mcds.Reconstruct(r.msgs, 0)
	if n < 100 || len(pcs) < n {
		t.Fatalf("reconstructed %d instructions, %d before the first interrupt", len(pcs), n)
	}
	for i, pc := range pcs[:n] {
		if pc != want[i].PC {
			t.Fatalf("instruction %d: reconstructed pc %#x, executed %#x", i, pc, want[i].PC)
		}
	}
}

// TestRetireLogEmptyWithoutConsumer: a rate-only session has no flow or
// data trace and no comparator, so the TriCore logs no retirements at all.
func TestRetireLogEmptyWithoutConsumer(t *testing.T) {
	r := newRetireRig(t)
	if gt := r.run(t, 20_000); len(gt) == 0 {
		t.Fatal("twin retired nothing")
	}
	if n := len(r.s.CPU.DrainRetired()); n != 0 {
		t.Errorf("retire log holds %d entries with no consumer", n)
	}
	if r.sess.MCDS.MsgsEmitted == 0 {
		t.Error("session emitted no rate messages")
	}
}

// TestFlowTraceSwitchedBetweenRuns: flow trace switched on between two Run
// calls traces from the first instruction of the second call.
func TestFlowTraceSwitchedBetweenRuns(t *testing.T) {
	r := newRetireRig(t)
	r.run(t, 8_000)
	for _, m := range r.msgs {
		if m.Src == 0 && (m.Kind == tmsg.KindSync || m.Kind == tmsg.KindFlow) {
			t.Fatalf("flow message before flow trace was switched on: %+v", m)
		}
	}
	r.sess.CPUObs().FlowTrace = true
	r.checkFlow(t, r.run(t, 8_000))
}

// TestFlowTraceOnByRule: a trigger rule's ActFlowTraceOn traces from the
// cycle after the rule fires.
func TestFlowTraceOnByRule(t *testing.T) {
	r := newRetireRig(t)
	m := r.sess.MCDS
	core := r.sess.CPUObs()
	fire := m.AllocSignal("window")
	win := mcds.NewRateCounter("window", 200,
		mcds.Tap{Obs: core, Event: sim.EvInstrExecuted}, mcds.Tap{Obs: core, Event: sim.EvCycle}, 3_000)
	win.Emit = false
	win.ThreshDen, win.Above = 1, fire
	m.AddCounter(win)
	m.AddRule(&mcds.TriggerRule{Name: "trace-on", When: mcds.On(fire), Once: true,
		Do: []mcds.Action{{Kind: mcds.ActFlowTraceOn, Core: core},
			{Kind: mcds.ActEmitTrigger, Src: 6, TriggerID: 7}}})

	gt := r.run(t, 12_000)
	var fired uint64
	for _, msg := range r.msgs {
		if msg.Kind == tmsg.KindTrigger && msg.TriggerID == 7 {
			fired = msg.Cycle
		}
	}
	if fired == 0 {
		t.Fatal("rule never fired")
	}
	for len(gt) > 0 && gt[0].Cycle <= fired {
		gt = gt[1:]
	}
	r.checkFlow(t, gt)
}
