package experiments

import (
	"context"
	"repro/internal/dap"
	"repro/internal/isa"
	"repro/internal/mcds"
	"repro/internal/mem"
	"repro/internal/profiling"
	"repro/internal/sim"
	"repro/internal/soc"
	"repro/internal/tmsg"
	"repro/internal/workload"
)

// referenceSpec is the engine-control application most experiments profile.
func referenceSpec() workload.Spec {
	spec, ok := workload.Mix("engine", base.Seed)
	if !ok {
		panic("experiments: the engine mix is missing")
	}
	return spec
}

func buildRef(cfg soc.Config, spec workload.Spec) (*soc.SoC, *workload.App) {
	s := soc.New(cfg, spec.Seed)
	app, err := workload.Build(s, spec)
	if err != nil {
		panic(err)
	}
	return s, app
}

// measure drives the session's measurement phase; experiments run under no
// deadline, so cancellation is impossible and any error is a bug.
func measure(sess *profiling.Session, app profiling.Runner, cycles uint64) {
	if err := sess.Run(context.Background(), app, cycles); err != nil {
		panic(err)
	}
}

// E1RateSemantics reproduces the Section 5 worked examples: rate counters
// whose windows are exact — 6 data flash reads per 100 executed
// instructions ⇒ a 6 % access rate, and the 4-miss ⇒ 96 % hit-rate
// convention.
func E1RateSemantics() *Table {
	t := newTable("E1", "Rate-counter semantics (worked examples of Section 5)",
		"parameter", "windows", "exact 6/100", "mean rate", "paper value")

	cfg := baseCfg().WithED()
	cfg.DCache = nil
	s := soc.New(cfg, 1)
	a := isa.NewAsm(mem.FlashBase)
	a.Movw(1, mem.FlashBase+0x10000)
	a.Movw(9, 500)
	a.Label("body")
	for i := int32(0); i < 6; i++ {
		a.Ldw(2, 1, i*4)
	}
	for i := 0; i < 93; i++ {
		a.Addi(3, 3, 1)
	}
	a.Loop(9, "body")
	a.Halt()
	p, err := a.Assemble()
	if err != nil {
		panic(err)
	}
	s.LoadProgram(p)
	s.ResetCPU(p.Base)
	sess := profiling.NewSession(s, profiling.Spec{Resolution: 100, Params: []profiling.Param{
		{Name: "dflash_read", Obs: profiling.ObsCPU, Event: sim.EvDFlashRead},
	}})
	if _, ok := s.RunUntilHalt(50_000_000); !ok {
		panic("E1 did not halt")
	}
	prof, err := sess.Result("worked")
	if err != nil {
		panic(err)
	}
	se := prof.Series["dflash_read"]
	exact := 0
	for _, smp := range se.Samples {
		if smp.Basis == 100 && smp.Count == 6 {
			exact++
		}
	}
	t.addRow("dflash_read / 100 instr", d(uint64(len(se.Samples))),
		d(uint64(exact)), f4(se.Mean()), "0.0600 (6%)")
	t.Metrics["dflash_rate"] = se.Mean()
	t.Metrics["exact_window_fraction"] = float64(exact) / float64(len(se.Samples))

	// Hit-rate convention: miss windows converted per the paper.
	hw := profiling.HitRatePct(profiling.Sample{Basis: 100, Count: 4})
	t.addRow("icache hit-rate convention", "1", "-", f2(hw), "96.00 (4 misses/100)")
	t.Metrics["hitrate_convention"] = hw
	t.note("every steady-state window reports exactly 6 flash reads per 100 instructions")
	return t
}

// E2IPCTimeline measures the dynamic IPC of the engine application at
// several resolutions ("dynamically ... over the time line", "up to 3
// within a clock cycle for TriCore").
func E2IPCTimeline() *Table {
	t := newTable("E2", "Dynamic IPC measurement (cycle-based resolution)",
		"resolution", "windows", "IPC min", "IPC mean", "IPC max", "trace bytes")
	for _, res := range []uint64{100, 1000, 10000} {
		s, app := buildRef(baseCfg().WithED(), referenceSpec())
		sess := profiling.NewSession(s, profiling.Spec{Resolution: res, Params: []profiling.Param{
			{Name: "ipc", Obs: profiling.ObsCPU, Event: sim.EvInstrExecuted, Basis: sim.EvCycle},
		}})
		measure(sess, app, 400_000)
		prof, err := sess.Result("engine")
		if err != nil {
			panic(err)
		}
		se := prof.Series["ipc"]
		t.addRow(d(res), d(uint64(len(se.Samples))), f3(se.Min()), f3(se.Mean()),
			f3(se.Max()), d(prof.TraceBytes))
		if res == 1000 {
			t.Metrics["ipc_mean"] = se.Mean()
			t.Metrics["ipc_max"] = se.Max()
		}
	}
	t.note("IPC never exceeds the 3-instructions/cycle bound of the three-pipe core")
	t.note("finer resolution reveals more dynamics and costs proportionally more trace bandwidth")
	return t
}

// E3Bandwidth compares the tool-link bytes of (a) MCDS rate messages,
// (b) external sampling of two long counters per parameter, and (c) full
// program flow trace — across CPU frequencies, against the fixed DAP
// budget ("the bandwidth of the tool interface does not scale with the
// CPU frequency").
func E3Bandwidth() *Table {
	t := newTable("E3", "Tool-link bandwidth: rate messages vs sampling vs full trace",
		"method", "resolution", "bytes/400k cycles", "bytes/Mcycle", "DAP budget@180MHz", "fits")

	const horizon = 400_000
	params := profiling.StandardParams()
	budget := dap.BytesPerMCycle(180)

	run := func(res uint64, flow bool) (bytes uint64, windows uint64) {
		s, app := buildRef(baseCfg().WithED(), referenceSpec())
		var sess *profiling.Session
		if flow {
			sess = profiling.NewSession(s, profiling.Spec{Resolution: 1 << 30,
				Params: params[:1]})
			sess.CPUObs().FlowTrace = true
		} else {
			sess = profiling.NewSession(s, profiling.Spec{Resolution: res, Params: params})
		}
		measure(sess, app, horizon)
		prof, err := sess.Result("engine")
		if err != nil {
			panic(err)
		}
		w := uint64(0)
		for _, se := range prof.Series {
			w += uint64(len(se.Samples))
		}
		return prof.TraceBytes, w
	}

	var rate1kBytes, rate10kBytes uint64
	for _, res := range []uint64{100, 1000, 10000} {
		bytes, windows := run(res, false)
		if res == 1000 {
			rate1kBytes = bytes
		}
		if res == 10000 {
			rate10kBytes = bytes
		}
		perM := bytes * 1_000_000 / horizon
		t.addRow("MCDS rate messages", d(res), d(bytes), d(perM), d(budget), fits(perM, budget))

		ext := profiling.ExternalSamplingBytes(len(params), windows/uint64(len(params)))
		extPerM := ext * 1_000_000 / horizon
		t.addRow("external counter sampling", d(res), d(ext), d(extPerM), d(budget), fits(extPerM, budget))
		if res == 1000 {
			t.Metrics["sampling_over_rate"] = float64(ext) / float64(bytes)
		}
	}
	flowBytes, _ := run(0, true)
	flowPerM := flowBytes * 1_000_000 / horizon
	t.addRow("full program flow trace", "-", d(flowBytes), d(flowPerM), d(budget), fits(flowPerM, budget))
	t.Metrics["sampling17_over_rate17"] = t.Metrics["sampling_over_rate"]
	t.Metrics["trace_over_rate17"] = float64(flowBytes) / float64(rate1kBytes)

	// Like-for-like: deriving a single parameter (IPC) from the full
	// program trace versus one rate counter stream.
	singleBytes := func() uint64 {
		s, app := buildRef(baseCfg().WithED(), referenceSpec())
		sess := profiling.NewSession(s, profiling.Spec{Resolution: 1000, Params: params[:1]})
		measure(sess, app, horizon)
		prof, err := sess.Result("engine")
		if err != nil {
			panic(err)
		}
		return prof.TraceBytes
	}()
	t.addRow("one rate counter (IPC)", "1000", d(singleBytes),
		d(singleBytes*1_000_000/horizon), d(budget), "yes")
	t.Metrics["trace_over_rate"] = float64(flowBytes) / float64(singleBytes)

	// Frequency sweep: the same measurement against a fixed link whose
	// bandwidth does not scale with the CPU clock. The coarse resolution
	// is the sustainable live-streaming configuration.
	for _, mhz := range []uint64{90, 180, 360} {
		b := dap.BytesPerMCycle(mhz)
		perM := rate10kBytes * 1_000_000 / horizon
		t.addRow("MCDS rate (res 10000)", "CPU "+d(mhz)+"MHz", d(rate10kBytes), d(perM), d(b), fits(perM, b))
	}
	t.note("coarse rate messages stream live within the fixed DAP budget even at 360 MHz; full trace never fits")
	t.note("finer resolutions buffer in the EMEM and drain after the run (or use the E4 cascade)")
	return t
}

func fits(need, have uint64) string {
	if need <= have {
		return "yes"
	}
	return "NO"
}

// E4Cascade measures the cascaded counter structure: a low-resolution IPC
// watch arms the high-resolution capture only when IPC drops below a
// threshold ("the IPC rate measurement with the high resolution, but also
// high trace bandwidth is only activated when the IPC rate with the low
// resolution is below a configurable threshold").
//
// The target alternates a long scratchpad compute phase (IPC near 3) with
// a shorter degraded phase of dependent flash pointer-chasing (IPC well
// below 1) — the "interesting spaces of time" the engineer drills into.
func E4Cascade() *Table {
	t := newTable("E4", "Cascaded counters: triggered high-resolution capture",
		"configuration", "trace bytes", "hi-res windows", "low-IPC windows seen")

	const (
		hiRes        = uint64(50)
		loRes        = uint64(400)
		thNum, thDen = 1, 1 // IPC threshold 1.0
	)

	build := func() *soc.SoC {
		s := soc.New(baseCfg().WithED(), 9)
		// Pointer-chase table: 32 KB of word-aligned offsets in flash,
		// far larger than the 4 KB D-cache.
		tbl := uint32(mem.FlashBase + 0x20000)
		rng := sim.NewRNG(123)
		buf := make([]byte, 32<<10)
		for i := 0; i < len(buf); i += 4 {
			v := uint32(rng.Uint64()) & 0x7FFC
			buf[i], buf[i+1], buf[i+2], buf[i+3] = byte(v), byte(v>>8), byte(v>>16), byte(v>>24)
		}
		s.Flash.Load(tbl, buf)

		a := isa.NewAsm(mem.FlashBase)
		a.Movw(7, tbl)          // table base
		a.Movw(1, mem.DSPRBase) // scratch pointer
		a.Movw(8, 1664525)      // LCG multiplier
		a.Movw(11, 1013904223)  // LCG increment
		a.Movi(6, 1)            // LCG state
		a.Movw(9, 80)           // phases
		a.Label("phase")
		// Compute phase: ~4800 cycles at ~3 IPC.
		a.Movw(3, 4800)
		a.Label("fast")
		a.Addi(2, 2, 1)
		a.Stw(2, 1, 0)
		a.Loop(3, "fast")
		// Degraded phase: dependent randomized flash loads (~160 misses,
		// each feeding the next address through an LCG).
		a.Movw(4, 160)
		a.Label("chase")
		a.Mul(6, 6, 8)
		a.Add(6, 6, 11)
		a.Shri(2, 6, 8)
		a.Andi(2, 2, 0xFFC)
		a.Shli(2, 2, 3)
		a.Add(5, 7, 2)
		a.Ldw(3, 5, 0)
		a.Add(6, 6, 3) // next address depends on the loaded value
		a.Loop(4, "chase")
		a.Loop(9, "phase")
		a.Halt()
		p, err := a.Assemble()
		if err != nil {
			panic(err)
		}
		s.LoadProgram(p)
		s.ResetCPU(p.Base)
		return s
	}

	type result struct {
		bytes  uint64
		hiWins int
		lowIPC int
	}
	run := func(cascade bool) result {
		s := build()
		m := mcds.New(s.EMEM)
		core := m.AddCore(s.CPU, 0)

		hi := mcds.NewRateCounter("ipc-hi", 2,
			mcds.Tap{Obs: core, Event: sim.EvInstrExecuted},
			mcds.Tap{Obs: core, Event: sim.EvCycle}, hiRes)
		m.AddCounter(hi)
		if cascade {
			hi.SetEnabled(false)
			below := m.AllocSignal("ipc-low")
			above := m.AllocSignal("ipc-ok")
			lo := mcds.NewRateCounter("ipc-lo", 1,
				mcds.Tap{Obs: core, Event: sim.EvInstrExecuted},
				mcds.Tap{Obs: core, Event: sim.EvCycle}, loRes)
			lo.Emit = false
			lo.ThreshNum, lo.ThreshDen = thNum, thDen
			lo.Below, lo.Above = below, above
			m.AddCounter(lo)
			m.AddRule(&mcds.TriggerRule{Name: "arm", When: mcds.On(below),
				Do: []mcds.Action{{Kind: mcds.ActEnableCounter, Counter: hi}}})
			m.AddRule(&mcds.TriggerRule{Name: "disarm", When: mcds.On(above),
				Do: []mcds.Action{{Kind: mcds.ActDisableCounter, Counter: hi}}})
		}
		s.Clock.Attach("mcds", m)
		if _, ok := s.RunUntilHalt(50_000_000); !ok {
			panic("E4 did not halt")
		}

		var dec tmsg.Decoder
		msgs, _, err := dec.DecodeAll(s.EMEM.Drain(s.EMEM.Level()))
		if err != nil {
			panic(err)
		}
		var r result
		r.bytes = m.BytesEmitted
		for _, msg := range msgs {
			if msg.Kind == tmsg.KindRate && msg.CounterID == 2 {
				r.hiWins++
				if msg.Count*thDen < msg.Basis*thNum {
					r.lowIPC++
				}
			}
		}
		return r
	}

	always := run(false)
	casc := run(true)
	t.addRow("always high-res", d(always.bytes), d(uint64(always.hiWins)), d(uint64(always.lowIPC)))
	t.addRow("cascade (armed below 1.0 IPC)", d(casc.bytes), d(uint64(casc.hiWins)), d(uint64(casc.lowIPC)))
	t.Metrics["bytes_saved_factor"] = float64(always.bytes) / float64(casc.bytes)
	if always.lowIPC > 0 {
		t.Metrics["low_ipc_coverage"] = float64(casc.lowIPC) / float64(always.lowIPC)
	}
	t.note("the cascade keeps most of the low-IPC diagnostic windows at a fraction of the trace volume")
	return t
}
