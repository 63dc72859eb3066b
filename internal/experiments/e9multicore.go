package experiments

import (
	"repro/internal/isa"
	"repro/internal/mcds"
	"repro/internal/mem"
	"repro/internal/sim"
	"repro/internal/soc"
	"repro/internal/tmsg"
)

// E9Multicore tests the paper's closing claim — "The proposed approach is
// sustainable for increasing clock frequencies and number of cores even
// with the limited bandwidth of affordable tool interfaces" — on a
// two-TriCore variant: one MCDS observes both cores (plus the PCP) in
// parallel; rate-message bandwidth grows linearly with core count and
// stays far below full-trace volume, while the merged stream keeps all
// sources' windows attributable and in cycle order.
func E9Multicore() *Table {
	t := newTable("E9", "Multi-core scalability: one MCDS, two TriCore cores",
		"configuration", "rate bytes", "flow-trace bytes", "sources seen", "order ok")

	run := func(secondCore, flow bool) (rateBytes, flowBytes uint64, sources int, ordered bool) {
		cfg := baseCfg().WithED()
		cfg.SecondCore = secondCore
		s := soc.New(cfg, 13)

		mk := func(base, dspr uint32, stride int32) *isa.Program {
			a := isa.NewAsm(base)
			a.Movw(1, dspr)
			a.Movw(3, 1<<30) // effectively endless
			a.Label("b")
			a.Addi(2, 2, stride)
			a.Stw(2, 1, 0)
			a.Ldw(4, 1, 0)
			a.Loop(3, "b")
			a.Halt()
			p, err := a.Assemble()
			if err != nil {
				panic(err)
			}
			return p
		}
		p0 := mk(mem.FlashBase, mem.DSPRBase, 1)
		s.LoadProgram(p0)
		s.ResetCPU(p0.Base)
		if secondCore {
			p1 := mk(mem.FlashBase+0x10000, mem.DSPR1Base, 3)
			s.LoadProgram(p1)
			s.ResetCPU1(p1.Base)
		}

		// Rate runs store into the EMEM (and are decoded); flow runs use a
		// nil sink so BytesEmitted reflects the true volume rather than
		// the 384 KB ring capacity.
		sink := s.EMEM
		if flow {
			sink = nil
		}
		m := mcds.New(sink)
		obs0 := m.AddCore(s.CPU, 0)
		m.AddCounter(mcds.NewRateCounter("ipc0", 0,
			mcds.Tap{Obs: obs0, Event: sim.EvInstrExecuted},
			mcds.Tap{Obs: obs0, Event: sim.EvCycle}, 1000))
		if flow {
			obs0.FlowTrace = true
		}
		if secondCore {
			obs1 := m.AddCore(s.CPU1, 1)
			m.AddCounter(mcds.NewRateCounter("ipc1", 1,
				mcds.Tap{Obs: obs1, Event: sim.EvInstrExecuted},
				mcds.Tap{Obs: obs1, Event: sim.EvCycle}, 1000))
			if flow {
				obs1.FlowTrace = true
			}
		}
		s.Clock.Attach("mcds", m)
		s.Clock.Run(200_000)

		if flow {
			return 0, m.BytesEmitted, 0, true
		}
		var dec tmsg.Decoder
		msgs, _, err := dec.DecodeAll(s.EMEM.Drain(s.EMEM.Level()))
		if err != nil {
			panic(err)
		}
		seen := map[uint8]bool{}
		ordered = true
		var last uint64
		for _, msg := range msgs {
			seen[msg.Src] = true
			if msg.Cycle < last {
				ordered = false
			}
			last = msg.Cycle
		}
		return m.BytesEmitted, 0, len(seen), ordered
	}

	r1, _, s1, o1 := run(false, false)
	r2, _, s2, o2 := run(true, false)
	_, f1, _, _ := run(false, true)
	_, f2, _, _ := run(true, true)

	t.addRow("1 core, rate counters", d(r1), "-", d(uint64(s1)), ok(o1))
	t.addRow("2 cores, rate counters", d(r2), "-", d(uint64(s2)), ok(o2))
	t.addRow("1 core, + flow trace", "-", d(f1), "-", "-")
	t.addRow("2 cores, + flow trace", "-", d(f2), "-", "-")

	t.Metrics["rate_scaling"] = float64(r2) / float64(r1)
	t.Metrics["flow_scaling"] = float64(f2) / float64(f1)
	t.Metrics["flow_over_rate_2core"] = float64(f2) / float64(r2)
	t.Metrics["order_preserved"] = b2f(o1 && o2)
	t.Metrics["sources_2core"] = float64(s2)
	t.note("rate-message volume scales ~linearly with core count (2 cores ≈ %.1f×),", float64(r2)/float64(r1))
	t.note("while per-core flow trace stays ~%.0f× more expensive — the rate approach remains tool-link-feasible", float64(f2)/float64(r2))
	return t
}

func ok(b bool) string {
	if b {
		return "yes"
	}
	return "NO"
}

func b2f(b bool) float64 {
	if b {
		return 1
	}
	return 0
}
