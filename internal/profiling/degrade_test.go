package profiling

import (
	"math"
	"testing"

	"repro/internal/fault"
	"repro/internal/soc"
)

// tinyEMEM is a TC1797ED with the trace buffer shrunk until the standard
// parameter set at high resolution overwhelms it — the situation the
// degradation controller exists for.
func tinyEMEM() soc.Config {
	cfg := soc.TC1797().WithED()
	cfg.EMEMSize = 6 << 10
	cfg.EMEMOverlay = 0
	return cfg
}

// TestDegradationPreventsLoss runs the same workload twice through an
// undersized trace buffer and a slow link. Undegraded, the buffer
// overflows and messages vanish; with the controller, resolution widens
// under pressure, nothing is lost, and the aggregate rates still agree
// with the lossy run's because every sample carries its actual basis.
func TestDegradationPreventsLoss(t *testing.T) {
	run := func(degrade *DegradePolicy) (*Profile, *Session) {
		s, app := buildApp(t, tinyEMEM(), stdSpec())
		sess := NewSession(s, Spec{
			Resolution: 200, Params: StandardParams(),
			DAP: true, Degrade: degrade,
		})
		mustRun(t, sess, app, 400_000)
		p, err := sess.Result("app")
		if err != nil {
			t.Fatal(err)
		}
		return p, sess
	}

	lossy, _ := run(nil)
	if lossy.MsgsLost == 0 {
		t.Fatal("undegraded run lost nothing — buffer not undersized enough to test")
	}

	clean, sess := run(&DegradePolicy{})
	if clean.MsgsLost != 0 {
		t.Errorf("degraded run still lost %d messages", clean.MsgsLost)
	}
	d := sess.Degrader
	if d.Widenings == 0 || d.MaxFactorSeen <= 1 {
		t.Fatalf("controller never engaged: %+v", d)
	}
	if d.CyclesDegraded == 0 {
		t.Error("CyclesDegraded not accounted")
	}

	// Widened windows really are wider, and their rates are still exact:
	// the aggregate IPC of the continuous degraded profile must agree with
	// the lossy run's surviving samples (same deterministic execution).
	var maxBasis uint64
	for _, s := range clean.Series["ipc"].Samples {
		if s.Basis > maxBasis {
			maxBasis = s.Basis
		}
	}
	if maxBasis < 400 {
		t.Errorf("no widened window observed: max basis %d at resolution 200", maxBasis)
	}
	a, b := clean.Rate("ipc"), lossy.Rate("ipc")
	if math.Abs(a-b) > 0.05*b {
		t.Errorf("degraded aggregate IPC %v deviates from lossy run's %v", a, b)
	}
}

// TestFramedSessionMatchesUnframed: with no faults injected, the hardened
// path (framing + reliable DAP + resynchronizing decoder) must reproduce
// the plain session's samples exactly — the robustness machinery is free
// when nothing goes wrong, apart from the documented link-byte overhead.
// It holds for both drain modes: live over the DAP, and read out of the
// EMEM after the run.
func TestFramedSessionMatchesUnframed(t *testing.T) {
	for _, live := range []bool{true, false} {
		name := "readout"
		if live {
			name = "dap"
		}
		t.Run(name, func(t *testing.T) { testFramedMatchesUnframed(t, live) })
	}
}

func testFramedMatchesUnframed(t *testing.T, live bool) {
	run := func(framed bool) (*Profile, *Session) {
		s, app := buildApp(t, soc.TC1797().WithED(), stdSpec())
		sess := NewSession(s, Spec{
			Resolution: 500, Params: StandardParams(),
			DAP: live, Framed: framed,
		})
		mustRun(t, sess, app, 300_000)
		p, err := sess.Result("app")
		if err != nil {
			t.Fatal(err)
		}
		return p, sess
	}
	plain, _ := run(false)
	hard, sess := run(true)
	if plain.MsgsLost != 0 || hard.MsgsLost != 0 {
		t.Fatalf("emitter dropped messages (plain %d, framed %d): the comparison needs a loss-free run",
			plain.MsgsLost, hard.MsgsLost)
	}

	if hard.LinkLost != 0 || len(hard.Gaps) != 0 {
		t.Fatalf("clean framed run reports loss: %d messages, %d gaps",
			hard.LinkLost, len(hard.Gaps))
	}
	if hard.MsgsDelivered != sess.MCDS.Framer().MsgsFramed {
		t.Errorf("delivered %d of %d framed messages on a clean link",
			hard.MsgsDelivered, sess.MCDS.Framer().MsgsFramed)
	}
	for name, se := range plain.Series {
		he := hard.Series[name]
		if len(he.Samples) != len(se.Samples) {
			t.Fatalf("%s: %d framed samples vs %d plain", name, len(he.Samples), len(se.Samples))
		}
		for i := range se.Samples {
			if he.Samples[i] != se.Samples[i] {
				t.Fatalf("%s sample %d: framed %+v vs plain %+v",
					name, i, he.Samples[i], se.Samples[i])
			}
		}
		if he.Confidence() != 1 {
			t.Errorf("%s: confidence %v on a clean run", name, he.Confidence())
		}
	}

	// Framing overhead on the link is bounded and documented (<15 %).
	framer := sess.MCDS.Framer()
	overhead := float64(framer.BytesFramed-hard.TraceBytes) / float64(framer.BytesFramed)
	if overhead <= 0 || overhead >= 0.15 {
		t.Errorf("framing overhead %.1f%% outside (0, 15%%)", overhead*100)
	}
}

// TestFaultySessionQuantifiesLoss: under EMEM soft errors (which no retry
// can heal) the session must survive, bound the damage, and tell the
// truth about it: exact conservation, located gaps, suspect samples.
func TestFaultySessionQuantifiesLoss(t *testing.T) {
	plan := fault.Plan{Name: "soft", Seed: 11, Mem: fault.MemPlan{FlipProb: 0.002}}
	s, app := buildApp(t, soc.TC1797().WithED(), stdSpec())
	sess := NewSession(s, Spec{
		Resolution: 500, Params: StandardParams(),
		DAP: true, Fault: &plan,
	})
	mustRun(t, sess, app, 400_000)
	p, err := sess.Result("app")
	if err != nil {
		t.Fatal(err)
	}
	if sess.Injector.BitFlips == 0 {
		t.Fatal("fault plan injected nothing")
	}
	if p.LinkLost == 0 || len(p.Gaps) == 0 {
		t.Fatalf("corruption caused no accounted loss (flips %d)", sess.Injector.BitFlips)
	}
	framed := sess.MCDS.Framer().MsgsFramed
	if p.MsgsDelivered+p.LinkLost != framed {
		t.Fatalf("conservation violated: %d delivered + %d lost != %d framed",
			p.MsgsDelivered, p.LinkLost, framed)
	}
	// The profile survives: every parameter still has samples, and the
	// contaminated windows are flagged.
	suspects := 0
	for _, name := range p.Names() {
		se := p.Series[name]
		if len(se.Samples) == 0 {
			t.Errorf("%s: series empty after faults", name)
		}
		for _, smp := range se.Samples {
			if smp.Suspect {
				suspects++
			}
		}
		if c := se.Confidence(); c <= 0 || c > 1 {
			t.Errorf("%s: confidence %v out of range", name, c)
		}
	}
	if suspects == 0 {
		t.Error("gaps present but no sample marked suspect")
	}
}
