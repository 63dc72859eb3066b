// Triggercascade: direct MCDS programming below the profiling layer —
// cascaded counters (a coarse IPC watch arms fine-grained capture only in
// degraded phases), a watchdog that triggers when an event does NOT happen
// within a time window, and a state machine gating the data trace to one
// function, all evaluated over the shared signal cross-connect.
package main

import (
	"fmt"
	"log"

	"repro/internal/isa"
	"repro/internal/mcds"
	"repro/internal/mem"
	"repro/internal/sim"
	"repro/internal/soc"
	"repro/internal/tmsg"
)

func main() {
	s := soc.New(soc.TC1797().WithED(), 1)

	// A two-phase program: fast scratch loop, then slow dependent flash
	// loads; it also pets a "heartbeat" DSPR address, but stops doing so
	// in the second phase — which the watchdog catches.
	a := isa.NewAsm(mem.FlashBase)
	a.Movw(1, mem.DSPRBase)
	a.Movw(7, mem.FlashBase+0x20000)
	a.Movw(9, 20) // phases
	a.Label("phase")
	a.Movw(3, 2000)
	a.Label("fast")
	a.Addi(2, 2, 1)
	a.Stw(2, 1, 0) // heartbeat
	a.Loop(3, "fast")
	a.Movw(4, 150) // slow phase: strided dependent flash loads, no heartbeat
	a.Label("slow")
	a.Ldw(5, 7, 0)
	a.Add(6, 5, 6) // depends on the load
	a.Mul(6, 6, 5)
	a.Addi(7, 7, 32) // next cache line every iteration
	a.Loop(4, "slow")
	a.Loop(9, "phase")
	a.Halt()
	prog, err := a.Assemble()
	if err != nil {
		log.Fatal(err)
	}
	s.LoadProgram(prog)
	s.ResetCPU(prog.Base)

	m := mcds.New(s.EMEM)
	core := m.AddCore(s.CPU, 0)

	// Cascade: coarse IPC watch arms the fine counter below 1.2 IPC.
	below := m.AllocSignal("ipc-low")
	above := m.AllocSignal("ipc-ok")
	coarse := mcds.NewRateCounter("ipc-coarse", 1,
		mcds.Tap{Obs: core, Event: sim.EvInstrExecuted},
		mcds.Tap{Obs: core, Event: sim.EvCycle}, 500)
	coarse.Emit = false
	coarse.ThreshNum, coarse.ThreshDen = 12, 10
	coarse.Below, coarse.Above = below, above
	m.AddCounter(coarse)

	fine := mcds.NewRateCounter("ipc-fine", 2,
		mcds.Tap{Obs: core, Event: sim.EvInstrExecuted},
		mcds.Tap{Obs: core, Event: sim.EvCycle}, 50)
	fine.SetEnabled(false)
	m.AddCounter(fine)

	m.AddRule(&mcds.TriggerRule{Name: "arm", When: mcds.On(below),
		Do: []mcds.Action{{Kind: mcds.ActEnableCounter, Counter: fine}}})
	m.AddRule(&mcds.TriggerRule{Name: "disarm", When: mcds.On(above),
		Do: []mcds.Action{{Kind: mcds.ActDisableCounter, Counter: fine}}})

	// Watchdog: heartbeat store must occur at least every 300 cycles
	// ("trigger on events not happening in a defined time window").
	wdFire := m.AllocSignal("heartbeat-lost")
	hb := m.AddComparator(&mcds.Comparator{Name: "heartbeat", Core: core,
		Kind: mcds.CompAddr, Lo: mem.DSPRBase, Hi: mem.DSPRBase + 4,
		Dir: mcds.RWWrite, Signal: m.AllocSignal("heartbeat-seen")})
	_ = hb
	wd := &mcds.Counter{Name: "wd", ID: 3, Mode: mcds.ModeWatchdog,
		Src:        mcds.Tap{Obs: core, Event: sim.EvDScratchAccess},
		Resolution: 300, Below: mcds.NoSignal, Above: wdFire,
		EmitTriggerOnFire: true, TriggerID: 9}
	m.AddCounter(wd)

	s.Clock.Attach("mcds", m)
	if _, ok := s.RunUntilHalt(50_000_000); !ok {
		log.Fatal("did not halt")
	}

	var dec tmsg.Decoder
	msgs, _, err := dec.DecodeAll(s.EMEM.Drain(s.EMEM.Level()))
	if err != nil {
		log.Fatal(err)
	}
	var fineWins, triggers int
	for _, msg := range msgs {
		switch msg.Kind {
		case tmsg.KindRate:
			if msg.CounterID == 2 {
				fineWins++
			}
		case tmsg.KindTrigger:
			if msg.TriggerID == 9 {
				triggers++
			}
		}
	}
	fmt.Printf("coarse IPC windows:        %d (%d below threshold)\n", coarse.Windows, coarse.Fires)
	fmt.Printf("fine IPC windows captured: %d (only in degraded phases)\n", fineWins)
	fmt.Printf("watchdog firings:          %d (heartbeat silent > 300 cycles)\n", wd.Fires)
	fmt.Printf("trigger messages:          %d\n", triggers)
	fmt.Printf("trace bytes:               %d\n", m.BytesEmitted)
	if fineWins == 0 || wd.Fires == 0 {
		log.Fatal("cascade or watchdog failed to engage")
	}
}
