package mcds

import (
	"testing"

	"repro/internal/emem"
	"repro/internal/mem"
	"repro/internal/sim"
	"repro/internal/tmsg"
)

// TestEmitZeroAlloc gates the MCDS message hot path: encoding into the
// reused scratch buffer and appending to the EMEM trace ring (raw mode) or
// the framer (hardened mode) must not allocate. One object per emitted
// message would dominate the GC at millions of messages per run.
func TestEmitZeroAlloc(t *testing.T) {
	for _, framed := range []bool{false, true} {
		name := "raw"
		if framed {
			name = "framed"
		}
		t.Run(name, func(t *testing.T) {
			ring := emem.New(1<<20, 0, 0)
			m := New(ring)
			if framed {
				m.EnableFraming()
			}
			msg := tmsg.Msg{Kind: tmsg.KindRate, Src: 1, CounterID: 2, Basis: 1000}
			emitOne := func() {
				msg.Cycle += 1000
				msg.Count = (msg.Count + 7) % 90
				m.emit(&msg)
			}
			for i := 0; i < 100; i++ {
				emitOne() // warm the scratch and framer buffers
			}
			allocs := testing.AllocsPerRun(5000, emitOne)
			if allocs != 0 {
				t.Errorf("emit allocates %.1f objects/op, want 0", allocs)
			}
			if m.MsgsLost != 0 {
				t.Errorf("ring overflowed during the gate (%d lost); enlarge it", m.MsgsLost)
			}
		})
	}
}

// TestTickZeroAlloc gates the whole warmed MCDS tick on a running SoC:
// flow and data trace, a comparator, rate counters closing windows every
// few cycles on three basis words, a watchdog, a threshold cascade and a
// state machine. Every cycle's observation must reuse its buffers.
func TestTickZeroAlloc(t *testing.T) {
	r := newEDRig(t)
	p, err := loopProgram(1 << 30).Assemble()
	if err != nil {
		t.Fatal(err)
	}
	r.soc.LoadProgram(p)
	r.soc.ResetCPU(p.Base)
	r.core.FlowTrace, r.core.DataTrace = true, true
	m, core := r.m, r.core
	flash := m.AddBus(r.soc.Flash.Counters(), 5)
	below, above := m.AllocSignal("low"), m.AllocSignal("ok")
	ipc := NewRateCounter("ipc", 1, Tap{Obs: core, Event: sim.EvInstrExecuted},
		Tap{Obs: core, Event: sim.EvCycle}, 16)
	ipc.ThreshNum, ipc.ThreshDen = 9, 10
	ipc.Below, ipc.Above = below, above
	ipc.TrackExtremes = true
	m.AddCounter(ipc)
	fine := m.AddCounter(NewRateCounter("fine", 2, Tap{Obs: core, Event: sim.EvStallCycle},
		Tap{Obs: core, Event: sim.EvInstrExecuted}, 4))
	m.AddCounter(NewRateCounter("flash", 3, Tap{Obs: flash, Event: sim.EvFlashPortConflict},
		Tap{Obs: flash, Event: sim.EvCycle}, 8))
	m.AddCounter(NewWatchdog("wd", 4, Tap{Obs: core, Event: sim.EvBranchTaken}, 3, m.AllocSignal("wd")))
	m.AddComparator(&Comparator{Name: "st", Core: core, Kind: CompAddr,
		Lo: mem.DSPRBase, Hi: mem.DSPRBase + 4, Signal: m.AllocSignal("st"), EmitTrigger: true})
	m.AddRule(&TriggerRule{Name: "arm", When: On(below),
		Do: []Action{{Kind: ActEnableCounter, Counter: fine}}})
	m.AddRule(&TriggerRule{Name: "disarm", When: On(above),
		Do: []Action{{Kind: ActDisableCounter, Counter: fine}}})
	sm := m.AddStateMachine("sm", []string{"a", "b"})
	sm.AddTransition(Transition{From: 0, When: On(below), To: 1})
	sm.AddTransition(Transition{From: 1, When: On(above), To: 0})

	for i := 0; i < 20_000; i++ {
		r.soc.Clock.Step()
		if r.soc.EMEM.Level() > r.soc.EMEM.TraceCapacity()/2 {
			r.soc.EMEM.Drain(r.soc.EMEM.Level())
		}
	}
	r.soc.EMEM.Drain(r.soc.EMEM.Level())
	windows := ipc.Windows
	if allocs := testing.AllocsPerRun(5000, func() { r.soc.Clock.Step() }); allocs != 0 {
		t.Errorf("warmed SoC+MCDS step allocates %.2f objects/cycle, want 0", allocs)
	}
	if ipc.Windows == windows || m.MsgsLost != 0 {
		t.Errorf("gate ran without closing windows (%d→%d) or lost messages (%d)", windows, ipc.Windows, m.MsgsLost)
	}
}
