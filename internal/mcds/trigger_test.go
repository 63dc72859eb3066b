package mcds

import (
	"reflect"
	"testing"

	"repro/internal/bus"
	"repro/internal/emem"
	"repro/internal/sim"
	"repro/internal/tmsg"
)

func TestExprCombinators(t *testing.T) {
	m := New(nil)
	a := m.AllocSignal("a")
	b := m.AllocSignal("b")
	c := m.AllocSignal("c")
	if m.SignalName(b) != "b" {
		t.Errorf("SignalName = %q", m.SignalName(b))
	}

	sig := func(vals ...bool) []bool { return vals }

	cases := []struct {
		name string
		e    Expr
		in   []bool
		want bool
	}{
		{"on true", On(a), sig(true, false, false), true},
		{"on false", On(a), sig(false, true, true), false},
		{"empty never", Expr{}, sig(true, true, true), false},
		{"allof both", AllOf(a, b), sig(true, true, false), true},
		{"allof one", AllOf(a, b), sig(true, false, false), false},
		{"anyof second", AnyOf(a, b), sig(false, true, false), true},
		{"anyof none", AnyOf(a, b), sig(false, false, true), false},
		{"andnot blocks", On(a).AndNot(b), sig(true, true, false), false},
		{"andnot passes", On(a).AndNot(b), sig(true, false, false), true},
		{"or left", On(a).Or(On(c)), sig(true, false, false), true},
		{"or right", On(a).Or(On(c)), sig(false, false, true), true},
		{"or neither", On(a).Or(On(c)), sig(false, true, false), false},
		{"nosignal term", On(NoSignal), sig(true, true, true), false},
		{"none of nosignal", On(a).AndNot(NoSignal), sig(true, false, false), true},
	}
	for _, tc := range cases {
		if got := tc.e.Eval(tc.in); got != tc.want {
			t.Errorf("%s: got %v", tc.name, got)
		}
	}
}

func TestTriggerRuleOnce(t *testing.T) {
	m := New(nil)
	s := m.AllocSignal("s")
	out := m.AllocSignal("out")
	rule := m.AddRule(&TriggerRule{Name: "once", When: On(s), Once: true,
		Do: []Action{{Kind: ActSetSignal, Signal: out}}})
	// Drive the signal manually for three cycles.
	for cy := uint64(0); cy < 3; cy++ {
		for i := range m.signals {
			m.signals[i] = false
		}
		m.set(s)
		for _, r := range m.rules {
			r.tick(m, cy)
		}
	}
	if rule.Fired != 1 {
		t.Errorf("once rule fired %d times", rule.Fired)
	}
}

func TestActionsTraceSwitches(t *testing.T) {
	sink := emem.New(4096, 0, 0)
	m := New(sink)
	// A fake core obs is needed for the trace actions; use a BusObs-free
	// core stub via the real structure.
	core := &CoreObs{id: 0}
	m.apply(Action{Kind: ActFlowTraceOn, Core: core}, 0)
	if !core.FlowTrace || !core.needSync {
		t.Error("flow trace on failed")
	}
	m.apply(Action{Kind: ActFlowTraceOff, Core: core}, 0)
	if core.FlowTrace {
		t.Error("flow trace off failed")
	}
	m.apply(Action{Kind: ActDataTraceOn, Core: core}, 0)
	if !core.DataTrace {
		t.Error("data trace on failed")
	}
	m.apply(Action{Kind: ActDataTraceOff, Core: core}, 0)
	if core.DataTrace {
		t.Error("data trace off failed")
	}
	m.apply(Action{Kind: ActEmitTrigger, TriggerID: 5, Src: 0}, 42)
	var dec tmsg.Decoder
	msgs, _, err := dec.DecodeAll(sink.Drain(sink.Level()))
	if err != nil || len(msgs) != 1 || msgs[0].Kind != tmsg.KindTrigger || msgs[0].TriggerID != 5 {
		t.Errorf("trigger emission: %v %+v", err, msgs)
	}
}

func TestStateMachineAccessorsAndPanics(t *testing.T) {
	m := New(nil)
	sm := m.AddStateMachine("sm", []string{"idle", "run"})
	if sm.StateSignal(0) == sm.StateSignal(1) {
		t.Error("state signals must differ")
	}
	if m.SignalName(sm.StateSignal(1)) != "sm.run" {
		t.Errorf("state signal name = %q", m.SignalName(sm.StateSignal(1)))
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Error("out-of-range transition must panic")
			}
		}()
		sm.AddTransition(Transition{From: 0, To: 5})
	}()
	func() {
		defer func() {
			if recover() == nil {
				t.Error("empty state machine must panic")
			}
		}()
		m.AddStateMachine("bad", nil)
	}()
}

func TestAddCounterValidation(t *testing.T) {
	m := New(nil)
	obs := m.AddBus(new(sim.Counters), 1)
	cases := []*Counter{
		{Name: "no-res", Src: Tap{Obs: obs, Event: sim.EvCycle}},
		{Name: "no-src", Resolution: 10},
		{Name: "no-basis", Mode: ModeRate, Resolution: 10, Src: Tap{Obs: obs, Event: sim.EvCycle}},
	}
	for _, c := range cases {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("counter %s must panic", c.Name)
				}
			}()
			m.AddCounter(c)
		}()
	}
}

func TestComparatorValidation(t *testing.T) {
	m := New(nil)
	defer func() {
		if recover() == nil {
			t.Error("comparator without core must panic")
		}
	}()
	m.AddComparator(&Comparator{Name: "bad"})
}

// TestFlowEvents: flow messages of interleaved sources reconstruct per
// source; other kinds and flows before a source's first Sync add nothing.
func TestFlowEvents(t *testing.T) {
	msgs := []tmsg.Msg{
		{Kind: tmsg.KindSync, Src: 0, Cycle: 1, PC: 0x100},
		{Kind: tmsg.KindFlow, Src: 0, Cycle: 10, ICount: 3, PC: 0x200},
		{Kind: tmsg.KindRate, Src: 1, Cycle: 11},
		{Kind: tmsg.KindFlow, Src: 1, Cycle: 12, ICount: 1, PC: 0x300},
		{Kind: tmsg.KindSync, Src: 1, Cycle: 13, PC: 0x400},
		{Kind: tmsg.KindFlow, Src: 1, Cycle: 14, ICount: 2, PC: 0x500},
		{Kind: tmsg.KindFlow, Src: 0, Cycle: 15, ICount: 1, PC: 0x600},
	}
	for src, want := range map[uint8][]uint32{
		0: {0x100, 0x104, 0x108, 0x200},
		1: {0x400, 0x404},
	} {
		if got := Reconstruct(msgs, src); !reflect.DeepEqual(got, want) {
			t.Errorf("src %d: pcs = %#x, want %#x", src, got, want)
		}
	}
}

func TestRegFileDirect(t *testing.T) {
	sink := emem.New(1024, 0, 0)
	m := New(sink)
	obs := m.AddBus(new(sim.Counters), 1)
	ctr := NewRateCounter("x", 0, Tap{Obs: obs, Event: sim.EvCycle},
		Tap{Obs: obs, Event: sim.EvCycle}, 100)
	m.AddCounter(ctr)
	rf := m.RegFile(0x1000)
	if rf.Name() == "" || rf.Size() < RegCounterBase+0x10 {
		t.Error("regfile identity")
	}
	rd := func(off uint32) uint32 {
		req := &bus.Request{Addr: 0x1000 + off, Data: make([]byte, 4)}
		rf.Access(0, req)
		return uint32(req.Data[0]) | uint32(req.Data[1])<<8 |
			uint32(req.Data[2])<<16 | uint32(req.Data[3])<<24
	}
	if rd(RegID) != RegFileID {
		t.Errorf("id = %#x", rd(RegID))
	}
	if rd(RegTraceLevel) != 0 {
		t.Error("trace level should be 0")
	}
	// Disable counter 0 via CTRL.
	req := &bus.Request{Addr: 0x1000 + RegCounterBase, Data: []byte{0, 0, 0, 0}, Write: true}
	rf.Access(0, req)
	if ctr.Enabled() {
		t.Error("counter not disabled via regfile")
	}
	// Re-enable resets the window.
	ctr.winCount = 55
	req.Data[0] = 1
	rf.Access(0, req)
	if count, _ := ctr.window(); !ctr.Enabled() || count != 0 {
		t.Error("re-enable must reset the window")
	}
	// Out-of-range registers read as zero and ignore writes.
	if rd(rf.Size()+64) != 0 {
		t.Error("oob read not zero")
	}
	wrOut := &bus.Request{Addr: 0x1000 + RegID, Data: []byte{1, 0, 0, 0}, Write: true}
	rf.Access(0, wrOut)
	if rd(RegID) != RegFileID {
		t.Error("global registers must be read-only")
	}
}

func TestCoreObsCPUAccessor(t *testing.T) {
	sink := emem.New(1024, 0, 0)
	m := New(sink)
	_ = m
	_ = sink
	// CPU() accessor is exercised through the soc-based rig in mcds_test;
	// here we only check that a BusObs taps the counter set it was given.
	ctrs := new(sim.Counters)
	obs := m.AddBus(ctrs, 2)
	if obs.Counters() != ctrs || obs.SrcID() != 2 {
		t.Error("bus observer must tap its own counter set under its source id")
	}
}
