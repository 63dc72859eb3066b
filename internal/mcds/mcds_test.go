package mcds

import (
	"testing"

	"repro/internal/emem"
	"repro/internal/isa"
	"repro/internal/mem"
	"repro/internal/sim"
	"repro/internal/soc"
	"repro/internal/tmsg"
)

// edRig is a TC1797ED with an MCDS observing the TriCore.
type edRig struct {
	soc  *soc.SoC
	m    *MCDS
	core *CoreObs
}

func newEDRig(t *testing.T) *edRig {
	t.Helper()
	s := soc.New(soc.TC1797().WithED(), 1)
	m := New(s.EMEM)
	core := m.AddCore(s.CPU, 0)
	s.Clock.Attach("mcds", m)
	return &edRig{soc: s, m: m, core: core}
}

func (r *edRig) loadAndRun(t *testing.T, a *isa.Asm, limit uint64) uint64 {
	t.Helper()
	p, err := a.Assemble()
	if err != nil {
		t.Fatal(err)
	}
	r.soc.LoadProgram(p)
	r.soc.ResetCPU(p.Base)
	cy, ok := r.soc.RunUntilHalt(limit)
	if !ok {
		t.Fatalf("did not halt in %d cycles", limit)
	}
	// One extra tick so the MCDS observes the final cycle's events.
	r.soc.Clock.Step()
	return cy
}

// loopProgram builds a flash-resident loop with a data access per
// iteration.
func loopProgram(iters int32) *isa.Asm {
	a := isa.NewAsm(mem.FlashBase)
	a.Movw(1, mem.DSPRBase)
	a.Movw(3, uint32(iters))
	a.Label("body")
	a.Addi(2, 2, 1)
	a.Stw(2, 1, 0)
	a.Loop(3, "body")
	a.Halt()
	return a
}

func decodeAll(t *testing.T, r *edRig) []tmsg.Msg {
	t.Helper()
	var dec tmsg.Decoder
	msgs, _, err := dec.DecodeAll(r.soc.EMEM.Drain(r.soc.EMEM.Level()))
	if err != nil {
		t.Fatal(err)
	}
	return msgs
}

func TestRateCounterExactness(t *testing.T) {
	r := newEDRig(t)
	ctr := NewRateCounter("ipc", 1,
		Tap{Obs: r.core, Event: sim.EvInstrExecuted},
		Tap{Obs: r.core, Event: sim.EvCycle}, 64)
	r.m.AddCounter(ctr)

	r.loadAndRun(t, loopProgram(3000), 1_000_000)

	msgs := decodeAll(t, r)
	var sumBasis, sumCount uint64
	var rates int
	for _, m := range msgs {
		if m.Kind == tmsg.KindRate && m.CounterID == 1 {
			rates++
			sumBasis += m.Basis
			sumCount += m.Count
			if m.Basis < 64 {
				t.Errorf("window basis %d below resolution", m.Basis)
			}
		}
	}
	if rates == 0 {
		t.Fatal("no rate messages")
	}
	// Exactness: windows plus the unfinished remainder equal ground truth.
	gt := r.soc.CPU.Counters()
	curCount, curBasis := ctr.window()
	if sumCount+curCount != gt.Get(sim.EvInstrExecuted) {
		t.Errorf("sum of windows %d + partial %d != ground truth %d",
			sumCount, curCount, gt.Get(sim.EvInstrExecuted))
	}
	if sumBasis+curBasis != gt.Get(sim.EvCycle) {
		t.Errorf("basis sum %d + partial %d != cycles %d",
			sumBasis, curBasis, gt.Get(sim.EvCycle))
	}
	// IPC must be in (0, 3].
	ipc := float64(sumCount) / float64(sumBasis)
	if ipc <= 0 || ipc > 3 {
		t.Errorf("ipc = %v", ipc)
	}
}

func TestRateCounterInstructionBasis(t *testing.T) {
	// Cache-miss rate per executed instructions: the paper's preferred
	// basis ("cache miss/hit/access events are measured as rates relating
	// to executed instructions").
	r := newEDRig(t)
	ctr := NewRateCounter("imiss", 2,
		Tap{Obs: r.core, Event: sim.EvICacheMiss},
		Tap{Obs: r.core, Event: sim.EvInstrExecuted}, 100)
	r.m.AddCounter(ctr)
	r.loadAndRun(t, loopProgram(5000), 1_000_000)

	var sumB, sumC uint64
	for _, m := range decodeAll(t, r) {
		if m.Kind == tmsg.KindRate && m.CounterID == 2 {
			sumB += m.Basis
			sumC += m.Count
		}
	}
	gt := r.soc.CPU.Counters()
	curCount, curBasis := ctr.window()
	if sumC+curCount != gt.Get(sim.EvICacheMiss) {
		t.Errorf("miss sum %d+%d != %d", sumC, curCount, gt.Get(sim.EvICacheMiss))
	}
	if sumB+curBasis != gt.Get(sim.EvInstrExecuted) {
		t.Errorf("instr basis mismatch")
	}
}

func TestWatchdogFiresOnSilence(t *testing.T) {
	r := newEDRig(t)
	fire := r.m.AllocSignal("wd-fire")
	// Watch data-scratch accesses; the program stops storing midway.
	wd := NewWatchdog("wd", 3, Tap{Obs: r.core, Event: sim.EvDScratchAccess}, 200, fire)
	wd.EmitTriggerOnFire = true
	wd.TriggerID = 7
	r.m.AddCounter(wd)

	a := isa.NewAsm(mem.FlashBase)
	a.Movw(1, mem.DSPRBase)
	a.Movw(3, 50)
	a.Label("store")
	a.Stw(2, 1, 0)
	a.Loop(3, "store")
	// Now a long silent phase.
	a.Movw(3, 2000)
	a.Label("quiet")
	a.Loop(3, "quiet")
	a.Halt()
	r.loadAndRun(t, a, 1_000_000)

	if wd.Fires == 0 {
		t.Fatal("watchdog never fired")
	}
	found := false
	for _, m := range decodeAll(t, r) {
		if m.Kind == tmsg.KindTrigger && m.TriggerID == 7 {
			found = true
		}
	}
	if !found {
		t.Error("trigger message missing")
	}
}

func TestComparatorCountsFunctionEntries(t *testing.T) {
	r := newEDRig(t)
	a := isa.NewAsm(mem.FlashBase)
	a.Movi(5, 20)
	a.Label("again")
	a.Call("fn")
	a.Loop(5, "again")
	a.Halt()
	a.Label("fn")
	a.Addi(6, 6, 1)
	a.Ret()
	p, err := a.Assemble()
	if err != nil {
		t.Fatal(err)
	}
	var fn uint32
	for _, s := range p.Syms {
		if s.Name == "fn" {
			fn = s.Addr
		}
	}
	sig := r.m.AllocSignal("in-fn")
	cmp := r.m.AddComparator(&Comparator{Name: "fn-entry", Core: r.core,
		Kind: CompPC, Lo: fn, Hi: fn + 4, Signal: sig})
	r.soc.LoadProgram(p)
	r.soc.ResetCPU(p.Base)
	r.soc.RunUntilHalt(1_000_000)
	r.soc.Clock.Step()
	if cmp.Matches != 20 {
		t.Errorf("entry matches = %d, want 20", cmp.Matches)
	}
}

func TestAddressComparatorWriteFilter(t *testing.T) {
	r := newEDRig(t)
	wsig := r.m.AllocSignal("w")
	rsig := r.m.AllocSignal("r")
	wc := r.m.AddComparator(&Comparator{Name: "w", Core: r.core, Kind: CompAddr,
		Lo: mem.DSPRBase, Hi: mem.DSPRBase + 4, Dir: RWWrite, Signal: wsig})
	rc := r.m.AddComparator(&Comparator{Name: "r", Core: r.core, Kind: CompAddr,
		Lo: mem.DSPRBase, Hi: mem.DSPRBase + 4, Dir: RWRead, Signal: rsig})

	a := isa.NewAsm(mem.FlashBase)
	a.Movw(1, mem.DSPRBase)
	a.Stw(2, 1, 0)
	a.Stw(2, 1, 0)
	a.Ldw(3, 1, 0)
	a.Stw(2, 1, 4) // outside range
	a.Halt()
	r.loadAndRun(t, a, 100_000)
	if wc.Matches != 2 {
		t.Errorf("writes = %d, want 2", wc.Matches)
	}
	if rc.Matches != 1 {
		t.Errorf("reads = %d, want 1", rc.Matches)
	}
}

func TestCascadeArmsHighResCounter(t *testing.T) {
	// The paper's cascade: a low-resolution IPC watch arms the
	// high-resolution measurement only when IPC drops below a threshold.
	r := newEDRig(t)
	below := r.m.AllocSignal("ipc-low")
	low := NewRateCounter("ipc-lo", 1,
		Tap{Obs: r.core, Event: sim.EvInstrExecuted},
		Tap{Obs: r.core, Event: sim.EvCycle}, 512)
	low.Emit = false
	low.ThreshNum, low.ThreshDen = 1, 1 // below 1.0 IPC
	low.Below = below
	r.m.AddCounter(low)

	hi := NewRateCounter("ipc-hi", 2,
		Tap{Obs: r.core, Event: sim.EvInstrExecuted},
		Tap{Obs: r.core, Event: sim.EvCycle}, 32)
	hi.SetEnabled(false)
	r.m.AddCounter(hi)

	r.m.AddRule(&TriggerRule{Name: "arm-hi", When: On(below),
		Do: []Action{{Kind: ActEnableCounter, Counter: hi}}})

	// Phase 1: fast loop (IPC high). Phase 2: uncached-flash data reads
	// in a dependency chain (IPC low).
	a := isa.NewAsm(mem.FlashBase)
	a.Movw(3, 2000)
	a.Label("fast")
	a.Addi(2, 2, 1)
	a.Loop(3, "fast")
	a.Movw(1, mem.FlashUncach+0x1000)
	a.Movw(3, 400)
	a.Label("slow")
	a.Ldw(2, 1, 0)
	a.Add(4, 2, 2) // depends on load
	a.Loop(3, "slow")
	a.Halt()
	r.loadAndRun(t, a, 10_000_000)

	if low.Fires == 0 {
		t.Fatal("low-res threshold never saw low IPC")
	}
	if !hi.Enabled() {
		t.Fatal("high-res counter was not armed")
	}
	var hiMsgs int
	for _, m := range decodeAll(t, r) {
		if m.Kind == tmsg.KindRate && m.CounterID == 2 {
			hiMsgs++
		}
	}
	if hiMsgs == 0 {
		t.Error("high-res counter emitted nothing after arming")
	}
}

func TestFlowTraceReconstruction(t *testing.T) {
	r := newEDRig(t)
	r.core.FlowTrace = true
	cy := r.loadAndRun(t, loopProgram(50), 1_000_000)
	_ = cy
	msgs := decodeAll(t, r)
	pcs := Reconstruct(msgs, 0)
	if len(pcs) == 0 {
		t.Fatal("no instructions reconstructed")
	}
	// Ground truth: the retired instruction count (minus any tail after
	// the last flow message, which has not been flushed by a flow event).
	gt := r.soc.CPU.Counters().Get(sim.EvInstrExecuted)
	if uint64(len(pcs)) > gt {
		t.Fatalf("reconstructed %d > executed %d", len(pcs), gt)
	}
	if uint64(len(pcs)) < gt-10 {
		t.Fatalf("reconstructed %d, executed %d: too much missing", len(pcs), gt)
	}
	// The loop body (ADDI at base+8) appears once per iteration except the
	// last: the final iteration ends in a not-taken LOOP and HALT, which
	// emit no flow message, so it stays in the unflushed tail.
	bodyPC := uint32(mem.FlashBase + 8)
	n := 0
	for _, pc := range pcs {
		if pc == bodyPC {
			n++
		}
	}
	if n != 49 {
		t.Errorf("loop body seen %d times, want 49", n)
	}
	// Cycle stamps non-decreasing.
	var last uint64
	for _, m := range msgs {
		if m.Cycle < last {
			t.Fatal("cycle stamps not monotonic")
		}
		last = m.Cycle
	}
}

func TestDataTraceQualification(t *testing.T) {
	r := newEDRig(t)
	r.core.DataTrace = true
	r.core.DataLo = mem.DSPRBase
	r.core.DataHi = mem.DSPRBase + 4

	a := isa.NewAsm(mem.FlashBase)
	a.Movw(1, mem.DSPRBase)
	a.Movi(2, 42)
	a.Stw(2, 1, 0) // in range
	a.Stw(2, 1, 8) // out of range
	a.Ldw(3, 1, 0) // in range
	a.Halt()
	r.loadAndRun(t, a, 100_000)

	var datas []tmsg.Msg
	for _, m := range decodeAll(t, r) {
		if m.Kind == tmsg.KindData {
			datas = append(datas, m)
		}
	}
	if len(datas) != 2 {
		t.Fatalf("data messages = %d, want 2", len(datas))
	}
	if !datas[0].Write || datas[0].Data != 42 {
		t.Errorf("first data msg: %+v", datas[0])
	}
	if datas[1].Write || datas[1].Data != 42 {
		t.Errorf("second data msg: %+v", datas[1])
	}
}

func TestNonIntrusiveness(t *testing.T) {
	// The instrumented run is cycle-for-cycle identical to the bare run.
	run := func(withMCDS bool) (uint64, uint64) {
		s := soc.New(soc.TC1797().WithED(), 9)
		if withMCDS {
			m := New(s.EMEM)
			core := m.AddCore(s.CPU, 0)
			core.FlowTrace = true
			core.DataTrace = true
			m.AddCounter(NewRateCounter("ipc", 1,
				Tap{Obs: core, Event: sim.EvInstrExecuted},
				Tap{Obs: core, Event: sim.EvCycle}, 100))
			s.Clock.Attach("mcds", m)
		}
		p, err := loopProgram(2000).Assemble()
		if err != nil {
			t.Fatal(err)
		}
		s.LoadProgram(p)
		s.ResetCPU(p.Base)
		cy, ok := s.RunUntilHalt(10_000_000)
		if !ok {
			t.Fatal("did not halt")
		}
		return cy, s.CPU.Counters().Get(sim.EvInstrExecuted)
	}
	c0, i0 := run(false)
	c1, i1 := run(true)
	if c0 != c1 || i0 != i1 {
		t.Errorf("MCDS perturbs execution: bare (%d,%d) vs observed (%d,%d)", c0, i0, c1, i1)
	}
}

func TestOverflowProtocol(t *testing.T) {
	// A tiny trace buffer overflows while a slow drain runs; the decoder
	// must stay in sync, see an overflow marker, and reconstruction must
	// resume after the next sync.
	s := soc.New(soc.TC1797().WithED(), 1)
	tiny := emem.New(512, 0, 0) // 512-byte trace ring
	m := New(tiny)
	core := m.AddCore(s.CPU, 0)
	core.FlowTrace = true
	m.syncEvery = 512
	s.Clock.Attach("mcds", m)

	// Tool side: drain 1 byte every 4 cycles (much slower than the trace
	// is produced).
	var received []byte
	s.Clock.Attach("drain", sim.TickerFunc(func(cy uint64) {
		if cy%4 == 0 {
			received = append(received, tiny.Drain(1)...)
		}
	}))

	p, err := loopProgram(3000).Assemble()
	if err != nil {
		t.Fatal(err)
	}
	s.LoadProgram(p)
	s.ResetCPU(p.Base)
	s.RunUntilHalt(10_000_000)
	s.Clock.Step()
	received = append(received, tiny.Drain(tiny.Level())...)

	if m.MsgsLost == 0 {
		t.Fatal("expected message loss")
	}
	var dec tmsg.Decoder
	msgs, _, err := dec.DecodeAll(received)
	if err != nil {
		t.Fatalf("decode after overflow: %v", err)
	}
	sawOverflow := false
	for _, msg := range msgs {
		if msg.Kind == tmsg.KindOverflow && msg.Lost > 0 {
			sawOverflow = true
		}
	}
	if !sawOverflow {
		t.Error("no overflow marker in stream")
	}
	if len(Reconstruct(msgs, 0)) == 0 {
		t.Error("reconstruction found nothing after overflow")
	}
}

func TestStateMachineWindowedTrace(t *testing.T) {
	// Classic MCDS use: trace only between function entry and exit.
	r := newEDRig(t)
	a := isa.NewAsm(mem.FlashBase)
	a.Movi(5, 3)
	a.Label("again")
	a.Call("fn")
	a.Loop(5, "again")
	a.Halt()
	a.Label("fn")
	a.Addi(6, 6, 1)
	a.Addi(6, 6, 1)
	a.Ret()
	p, err := a.Assemble()
	if err != nil {
		t.Fatal(err)
	}
	var fn uint32
	for _, sy := range p.Syms {
		if sy.Name == "fn" {
			fn = sy.Addr
		}
	}
	enter := r.m.AllocSignal("enter")
	leave := r.m.AllocSignal("leave")
	r.m.AddComparator(&Comparator{Name: "enter", Core: r.core, Kind: CompPC,
		Lo: fn, Hi: fn + 4, Signal: enter})
	r.m.AddComparator(&Comparator{Name: "leave", Core: r.core, Kind: CompPC,
		Lo: fn + 8, Hi: fn + 12, Signal: leave})

	sm := r.m.AddStateMachine("win", []string{"idle", "tracing"})
	sm.AddTransition(Transition{From: 0, When: On(enter), To: 1,
		Do: []Action{{Kind: ActDataTraceOn, Core: r.core}}})
	sm.AddTransition(Transition{From: 1, When: On(leave), To: 0,
		Do: []Action{{Kind: ActDataTraceOff, Core: r.core}}})

	r.soc.LoadProgram(p)
	r.soc.ResetCPU(p.Base)
	r.soc.RunUntilHalt(1_000_000)
	r.soc.Clock.Step()

	if sm.Moves < 6 { // 3 calls × enter+leave
		t.Errorf("state machine moves = %d, want >= 6", sm.Moves)
	}
	if sm.State() != 0 {
		t.Errorf("machine must end idle, in state %d", sm.State())
	}
}

func TestMCDSTopology(t *testing.T) {
	// F5: per-core observation blocks plus bus observation under one MCDS,
	// all feeding the shared signal cross-connect.
	s := soc.New(soc.TC1797().WithED(), 1)
	m := New(s.EMEM)
	tc := m.AddCore(s.CPU, 0)
	pcp := m.AddCore(s.PCP.Core, 1)
	busObs := m.AddBus(s.DLMB.Counters(), 2)
	flashObs := m.AddBus(s.Flash.Counters(), 3)
	if tc.SrcID() == pcp.SrcID() {
		t.Error("sources must be distinct")
	}
	if busObs.SrcID() != 2 || flashObs.SrcID() != 3 {
		t.Error("bus observation ids wrong")
	}
	m.AddCounter(NewRateCounter("contention", 4,
		Tap{Obs: busObs, Event: sim.EvBusContention},
		Tap{Obs: tc, Event: sim.EvInstrExecuted}, 100))
	s.Clock.Attach("mcds", m)
	p, err := loopProgram(100).Assemble()
	if err != nil {
		t.Fatal(err)
	}
	s.LoadProgram(p)
	s.ResetCPU(p.Base)
	if _, ok := s.RunUntilHalt(1_000_000); !ok {
		t.Fatal("did not halt")
	}
}

func TestBreakpointHaltsAtWatchpoint(t *testing.T) {
	// Run control: a PC comparator drives a break action; the core halts
	// right at the point of interest ("trigger close to the point of
	// interest") while a second run without the breakpoint continues.
	r := newEDRig(t)
	a := isa.NewAsm(mem.FlashBase)
	a.Movw(3, 10_000)
	a.Label("spin")
	a.Addi(2, 2, 1)
	a.Loop(3, "spin")
	a.Label("poi") // point of interest: reached after the long loop
	a.Nop()        // the break lands here (one-instruction skid)
	a.Movi(4, 99)  // must never execute
	a.Halt()
	p, err := a.Assemble()
	if err != nil {
		t.Fatal(err)
	}
	var poi uint32
	for _, sy := range p.Syms {
		if sy.Name == "poi" {
			poi = sy.Addr
		}
	}
	hit := r.m.AllocSignal("poi")
	r.m.AddComparator(&Comparator{Name: "poi", Core: r.core, Kind: CompPC,
		Lo: poi, Hi: poi + 4, Signal: hit})
	r.m.AddRule(&TriggerRule{Name: "break", When: On(hit), Once: true,
		Do: []Action{{Kind: ActBreak, Core: r.core}}})

	r.soc.LoadProgram(p)
	r.soc.ResetCPU(p.Base)
	r.soc.RunUntilHalt(10_000_000)
	r.soc.Clock.Step()
	// The break fired at the POI: the MOVI after it never executed.
	if r.soc.CPU.Reg(4) == 99 {
		t.Error("core ran past the breakpoint")
	}
	if r.soc.CPU.Reg(2) != 10_000 {
		t.Errorf("loop incomplete before break: r2=%d", r.soc.CPU.Reg(2))
	}
}

func TestCounterExtremeCapture(t *testing.T) {
	// Min/max capture registers record the worst and best windows with
	// zero trace bandwidth.
	r := newEDRig(t)
	ctr := NewRateCounter("ipc", 1,
		Tap{Obs: r.core, Event: sim.EvInstrExecuted},
		Tap{Obs: r.core, Event: sim.EvCycle}, 100)
	ctr.Emit = false
	ctr.TrackExtremes = true
	r.m.AddCounter(ctr)

	// Two-phase program: fast scratch... use the flash loop with a slow
	// uncached phase for contrast.
	a := isa.NewAsm(mem.FlashBase)
	a.Movw(3, 3000)
	a.Label("fast")
	a.Addi(2, 2, 1)
	a.Loop(3, "fast")
	a.Movw(1, mem.FlashUncach+0x1000)
	a.Movw(3, 300)
	a.Label("slow")
	a.Ldw(2, 1, 0)
	a.Add(4, 2, 2)
	a.Addi(1, 1, 32) // new flash line every iteration: real array reads
	a.Loop(3, "slow")
	a.Halt()
	r.loadAndRun(t, a, 10_000_000)

	if ctr.Windows == 0 || !ctr.haveExtremes {
		t.Fatal("no windows recorded")
	}
	maxRate := float64(ctr.MaxCount) / float64(ctr.MaxBasis)
	minRate := float64(ctr.MinCount) / float64(ctr.MinBasis)
	if maxRate <= minRate {
		t.Fatalf("extremes not separated: max %.3f min %.3f", maxRate, minRate)
	}
	if maxRate < 1.0 {
		t.Errorf("fast-phase max IPC = %.3f, want >= 1", maxRate)
	}
	if minRate > 0.6 {
		t.Errorf("slow-phase min IPC = %.3f, want <= 0.6", minRate)
	}
	// No trace bandwidth was spent.
	if r.m.BytesEmitted != 0 {
		t.Errorf("extreme capture cost %d trace bytes", r.m.BytesEmitted)
	}
}

// TestDueValues pins the by-exception gate: only basis words are ever
// due, at the earliest window end of their armed counters, re-armed by
// window closes, arming and resolution changes.
func TestDueValues(t *testing.T) {
	m := New(nil)
	ctrs := new(sim.Counters)
	b := m.AddBus(ctrs, 1)
	tap := func(e sim.Event) Tap { return Tap{Obs: b, Event: e} }
	due := func(e sim.Event) uint64 { return m.words[m.tap(tap(e))].due }
	const never = ^uint64(0)
	check := func(when string, e sim.Event, want uint64) {
		t.Helper()
		if got := due(e); got != want {
			t.Errorf("%s: %v due at %d, want %d", when, e, got, want)
		}
	}

	a := m.AddCounter(NewRateCounter("a", 0, tap(sim.EvBusRequest), tap(sim.EvCycle), 100))
	m.AddCounter(NewRateCounter("b", 1, tap(sim.EvBusGrant), tap(sim.EvCycle), 30))
	check("added", sim.EvCycle, 30)
	check("added", sim.EvBusRequest, never)
	for c := uint64(0); c < 30; c++ {
		ctrs.Inc(sim.EvCycle)
		m.Tick(c)
	}
	check("after b's first window", sim.EvCycle, 60)
	a.SetResolution(40)
	check("a narrowed", sim.EvCycle, 40)
	a.SetEnabled(false)
	check("a disarmed", sim.EvCycle, 60)
	m.AddCounter(NewWatchdog("w", 2, tap(sim.EvBusWaitCycle), 5, NoSignal))
	check("watchdog added", sim.EvBusWaitCycle, never)
}
