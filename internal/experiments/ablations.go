package experiments

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/dap"
	"repro/internal/emem"
	"repro/internal/flash"
	"repro/internal/mcds"
	"repro/internal/profiling"
	"repro/internal/sim"
	"repro/internal/soc"
	"repro/internal/tmsg"
)

// A1RateBasis ablates the paper's choice of resolution basis: event rates
// are measured per *executed instruction*, not per cycle, because an
// instruction-based rate characterizes the software independently of how
// fast the silicon happens to run it ("An instruction cache miss in clock
// cycle x is not a meaningful information ... it is not clear whether the
// CPU executed mostly instructions or stalled").
//
// The same application is run on a fast (2 WS) and a slow (10 WS) flash:
// the instruction-based miss rate stays put; the cycle-based one drifts
// with the hardware timing.
func A1RateBasis() *Table {
	t := newTable("A1", "Ablation: rate basis — per instruction vs per cycle",
		"flash", "imiss / instr", "imiss / cycle", "IPC")

	spec := referenceSpec()
	spec.CodeKB = 64 // enough footprint for a visible miss rate
	measure := func(ws uint64) (perInstr, perCycle, ipc float64) {
		cfg := baseCfg().WithED()
		cfg.Flash.WaitStates = ws
		s, app := buildRef(cfg, spec)
		sess := profiling.NewSession(s, profiling.Spec{Resolution: 1000, Params: []profiling.Param{
			{Name: "imiss_pi", Obs: profiling.ObsCPU, Event: sim.EvICacheMiss},
			{Name: "imiss_pc", Obs: profiling.ObsCPU, Event: sim.EvICacheMiss, Basis: sim.EvCycle},
			{Name: "ipc", Obs: profiling.ObsCPU, Event: sim.EvInstrExecuted, Basis: sim.EvCycle},
		}})
		measure(sess, app, 500_000)
		p, err := sess.Result("a1")
		if err != nil {
			panic(err)
		}
		return p.Rate("imiss_pi"), p.Rate("imiss_pc"), p.Rate("ipc")
	}

	fi, fc, fipc := measure(2)
	si, sc, sipc := measure(10)
	t.addRow("fast (2 wait states)", f4(fi), f4(fc), f3(fipc))
	t.addRow("slow (10 wait states)", f4(si), f4(sc), f3(sipc))

	instrDrift := relDrift(fi, si)
	cycleDrift := relDrift(fc, sc)
	t.Metrics["instr_basis_drift"] = instrDrift
	t.Metrics["cycle_basis_drift"] = cycleDrift
	t.note("the instruction-based rate drifts %.1f%% across hardware speeds; the cycle-based rate %.1f%%",
		100*instrDrift, 100*cycleDrift)
	t.note("the instruction basis measures the application; the cycle basis confounds it with silicon speed")
	return t
}

func relDrift(a, b float64) float64 {
	if a == 0 && b == 0 {
		return 0
	}
	hi, lo := a, b
	if lo > hi {
		hi, lo = lo, hi
	}
	if lo == 0 {
		return 1
	}
	return hi/lo - 1
}

// A2Compression ablates the trace message encoding: the varint/delta
// format of internal/tmsg against a fixed-width raw encoding of the same
// message stream.
func A2Compression() *Table {
	t := newTable("A2", "Ablation: trace message compression",
		"encoding", "messages", "bytes", "bytes/msg")

	// Produce a realistic mixed stream: rate messages + flow trace.
	s, app := buildRef(baseCfg().WithED(), referenceSpec())
	sess := profiling.NewSession(s, profiling.Spec{Resolution: 1000,
		Params: profiling.StandardParams()})
	sess.CPUObs().FlowTrace = true
	measure(sess, app, 300_000)
	prof, err := sess.Result("a2")
	if err != nil {
		panic(err)
	}

	// Fixed-width equivalent: kind+src byte, 8-byte absolute timestamp,
	// and full-width operands per kind (what a naive trace port emits).
	var fixed uint64
	for _, m := range prof.Msgs {
		switch m.Kind {
		case tmsg.KindSync:
			fixed += 1 + 8 + 4
		case tmsg.KindFlow:
			fixed += 1 + 8 + 4 + 4 // timestamp, icount, target
		case tmsg.KindData:
			fixed += 1 + 8 + 4 + 4
		case tmsg.KindRate:
			fixed += 1 + 8 + 1 + 8 + 8 // id + two long counters
		case tmsg.KindTrigger:
			fixed += 1 + 8 + 1
		case tmsg.KindOverflow:
			fixed += 1 + 8
		}
	}
	n, size := uint64(len(prof.Msgs)), prof.TraceBytes
	t.addRow("varint/delta (tmsg)", d(n), d(size), f2(float64(size)/float64(n)))
	t.addRow("fixed-width raw", d(n), d(fixed), f2(float64(fixed)/float64(n)))
	t.Metrics["compression_factor"] = float64(fixed) / float64(size)
	t.note("delta timestamps and varints shrink the stream several-fold at identical information content")
	return t
}

// A3FlashArbitration ablates the flash code/data port arbitration policy
// on a TC1767-like device (no D-cache) whose lookup tables live in flash,
// so fetches and data reads can meet at the array. The reference workload
// seldom makes them meet, which the note states.
func A3FlashArbitration() *Table {
	t := newTable("A3", "Ablation: flash code/data port arbitration",
		"policy", "cycles for 200 iters", "port conflicts", "slowdown")

	spec := referenceSpec()
	spec.TableKB = 64
	const iters, limit = 200, 100_000_000
	var baseCy uint64
	for i, pol := range []flash.ArbPolicy{flash.ArbCodePriority, flash.ArbFCFS, flash.ArbDataPriority} {
		cfg := soc.TC1767() // no D-cache: every table read reaches the flash
		cfg.Flash.Policy = pol
		cy, app, err := core.MeasureCycles(cfg, spec, iters, limit)
		if err != nil {
			panic(err)
		}
		conflicts := app.SoC.Flash.Counters().Get(sim.EvFlashPortConflict)
		slow := "1.00x"
		if i == 0 {
			baseCy = cy
		} else {
			slow = fmt.Sprintf("%.3fx", float64(cy)/float64(baseCy))
		}
		t.addRow(pol.String(), d(cy), d(conflicts), slow)
		t.Metrics["conflicts_"+pol.String()] = float64(conflicts)
		if i > 0 {
			t.Metrics["slowdown_"+pol.String()] = float64(cy) / float64(baseCy)
		}
	}
	t.note("with flash-resident tables and no D-cache the ports conflict at most once in 200 iterations; every policy takes the same cycles")
	return t
}

// A4TraceBufferSizing ablates the EMEM trace-ring size against a fixed DAP
// drain: the smaller the on-chip buffer, the more messages are lost while
// streaming (the trade the ED resolves by providing "a comparatively high
// amount of fast on-chip trace memory"). Loss is the share of flow
// messages lost; the emitted count also holds the Overflow markers and
// re-anchor Syncs the recovery protocol stores.
func A4TraceBufferSizing() *Table {
	t := newTable("A4", "Ablation: EMEM trace ring size vs message loss (flow trace over DAP)",
		"trace ring", "messages emitted", "messages lost", "flow loss")

	for _, kb := range []uint32{2, 8, 32, 128, 384} {
		m, flows := a4Trace(kb << 10)
		loss := float64(m.MsgsLost) / float64(flows+m.MsgsLost)
		t.addRow(fmt.Sprintf("%d KB", kb), d(m.MsgsEmitted), d(m.MsgsLost), pct(loss))
		t.Metrics[fmt.Sprintf("loss_%dkb", kb)] = loss
	}
	t.note("a larger on-chip ring rides out bursts the fixed DAP cannot absorb; loss falls monotonically")
	return t
}

// a4Trace runs A4's configuration: 400 000 cycles of the reference
// workload, flow-traced into a ring of ringBytes that the DAP drains. It
// returns the emitter and the number of flow messages the ring accepted.
func a4Trace(ringBytes uint32) (*mcds.MCDS, uint64) {
	s, app := buildRef(baseCfg().WithED(), referenceSpec())
	ring := newRing(ringBytes)
	m := mcds.New(ring)
	var flows uint64
	m.OnEmit = func(msg *tmsg.Msg) {
		if msg.Kind == tmsg.KindFlow {
			flows++
		}
	}
	m.AddCore(s.CPU, 0).FlowTrace = true
	s.Clock.Attach("mcds", m)
	s.Clock.Attach("dap", dap.New(s.Cfg.CPUFreqMHz, ring))
	app.RunFor(400_000)
	return m, flows
}

func newRing(size uint32) *emem.EMEM { return emem.New(size, 0, 0) }
