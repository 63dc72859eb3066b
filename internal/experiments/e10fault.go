package experiments

import (
	"time"

	"repro/internal/fault"
	"repro/internal/profiling"
	"repro/internal/tmsg"
)

// E10FaultRecovery measures the hardened tool link under escalating fault
// pressure: link corruption (which the NAK/retry protocol heals at the
// cost of retransmission bandwidth) combined with EMEM soft errors (which
// no retry can heal — the decoder resynchronizes and quantifies the loss).
// Reported per corruption level: delivered message fraction, retry and
// abandonment counts, the mean recovery latency (gap length in CPU
// cycles), and the tool-side decode throughput over the received stream.
func E10FaultRecovery() *Table {
	t := newTable("E10", "Fault recovery on the hardened trace link",
		"corruption", "retries", "abandoned", "delivered", "lost", "gaps",
		"recovery (cyc)", "decode MB/s")

	for _, level := range []struct {
		name string
		prob float64
	}{
		{"0%", 0},
		{"0.1%", 0.001},
		{"1%", 0.01},
	} {
		s, app := buildRef(baseCfg().WithED(), referenceSpec())
		var plan *fault.Plan
		if level.prob > 0 {
			plan = &fault.Plan{
				Name: "e10-" + level.name, Seed: 7,
				Link: fault.LinkPlan{CorruptProb: level.prob},
				Mem:  fault.MemPlan{FlipProb: level.prob / 20},
			}
		}
		sess := profiling.NewSession(s, profiling.Spec{
			Resolution: 500, Params: profiling.StandardParams(),
			DAP: true, Framed: true, Fault: plan,
		})
		measure(sess, app, 400_000)
		prof, err := sess.Result("engine")
		if err != nil {
			panic(err)
		}

		framed := sess.MCDS.Framer().MsgsFramed
		deliveredFrac := float64(prof.MsgsDelivered) / float64(framed)
		var recovery float64
		closed := 0
		for _, g := range prof.Gaps {
			if !g.Open() {
				recovery += float64(g.EndCycle - g.StartCycle)
				closed++
			}
		}
		if closed > 0 {
			recovery /= float64(closed)
		}
		mbps := decodeThroughput(sess.DAP.Received)

		t.addRow(level.name, d(sess.DAP.Retries), d(sess.DAP.FramesAbandoned),
			pct(deliveredFrac), d(prof.LinkLost), d(uint64(len(prof.Gaps))),
			f2(recovery), f2(mbps))

		switch level.prob {
		case 0:
			t.Metrics["delivered_frac_clean"] = deliveredFrac
			t.Metrics["decode_mbps_clean"] = mbps
		case 0.01:
			t.Metrics["delivered_frac_1pct"] = deliveredFrac
			t.Metrics["recovery_cycles_1pct"] = recovery
			t.Metrics["decode_mbps_1pct"] = mbps
			t.Metrics["retries_1pct"] = float64(sess.DAP.Retries)
		}
	}
	t.note("link corruption is healed by NAK/retry (retries, no loss); EMEM soft errors are abandoned and quantified")
	t.note("recovery = mean cycles between the last trusted message and re-acquisition after a loss")
	return t
}

// decodeThroughput times the resynchronizing decoder over the received
// byte stream (repeated until the measurement is stable enough to report).
func decodeThroughput(raw []byte) float64 {
	if len(raw) == 0 {
		return 0
	}
	const reps = 50
	start := time.Now()
	for i := 0; i < reps; i++ {
		st := tmsg.NewStreamDecoder()
		st.Feed(raw)
	}
	sec := time.Since(start).Seconds()
	if sec == 0 {
		return 0
	}
	return float64(len(raw)) * reps / sec / 1e6
}
