// Chaos soak: every fault scenario against the engine-control workload on
// the hardened trace pipeline. The test is not that nothing breaks — most
// scenarios guarantee losses — but that the pipeline keeps its promises
// under fire: it never errors, accounts every single message (written ==
// delivered + accounted lost), and never fabricates data (every delivered
// message is byte-exact against the emitter's ground-truth mirror).
package repro_test

import (
	"context"
	"testing"

	"repro/internal/fault"
	"repro/internal/profiling"
	"repro/internal/soc"
	"repro/internal/tmsg"
	"repro/internal/workload"
)

func engineSpec() workload.Spec {
	return workload.Spec{
		Name: "engine", Seed: 2024, CodeKB: 24, TableKB: 32, FilterTaps: 16,
		DiagBranches: 12, ADCPeriod: 2500, TimerPeriod: 9000, CANMeanGap: 5000,
		EEPROMEmul: true,
	}
}

// chaosMsgEqual compares a decoded message against the mirror, ignoring
// the Overflow timestamp the decoder synthesizes from stream position.
func chaosMsgEqual(emitted, decoded tmsg.Msg) bool {
	if decoded.Kind == tmsg.KindOverflow {
		emitted.Cycle, decoded.Cycle = 0, 0
	}
	return emitted == decoded
}

func TestChaosSoak(t *testing.T) {
	for _, plan := range fault.Scenarios(2024) {
		plan := plan
		t.Run(plan.Name, func(t *testing.T) {
			s := soc.New(soc.TC1797().WithED(), 2024)
			app, err := workload.Build(s, engineSpec())
			if err != nil {
				t.Fatal(err)
			}
			sess := profiling.NewSession(s, profiling.Spec{
				Resolution: 500,
				Params:     profiling.StandardParams(),
				DAP:        true,
				Framed:     true,
				Fault:      &plan,
			})
			var mirror []tmsg.Msg
			sess.MCDS.OnEmit = func(m *tmsg.Msg) { mirror = append(mirror, *m) }

			if err := sess.Run(context.Background(), app, 400_000); err != nil {
				t.Fatal(err)
			}
			p, err := sess.Result("engine")
			if err != nil {
				t.Fatalf("hardened session errored under %s: %v", plan.Name, err)
			}

			// Conservation: every message the MCDS handed to the frame
			// layer is either delivered or accounted lost — none vanish
			// silently, none are invented.
			framed := sess.MCDS.Framer().MsgsFramed
			if uint64(len(mirror)) != framed {
				t.Fatalf("mirror saw %d messages, framer took %d", len(mirror), framed)
			}
			if p.MsgsDelivered+p.LinkLost != framed {
				t.Fatalf("conservation violated: %d delivered + %d lost != %d written",
					p.MsgsDelivered, p.LinkLost, framed)
			}

			// Integrity: the delivered stream is an exact subsequence of
			// the emitted stream. Corruption may delete messages, but a
			// message that survives must survive unmodified — a CRC escape
			// or decoder desync would show up here as a mutated sample.
			msgs := tmsg.NewStreamDecoder().Feed(sess.DAP.Received)
			if uint64(len(msgs)) != p.MsgsDelivered {
				t.Fatalf("received bytes decode to %d messages, session delivered %d", len(msgs), p.MsgsDelivered)
			}
			j := 0
			for i, got := range msgs {
				for j < len(mirror) && !chaosMsgEqual(mirror[j], got) {
					j++
				}
				if j == len(mirror) {
					t.Fatalf("delivered message %d (%+v) does not appear in the emitted stream", i, got)
				}
				j++
			}

			if plan.Name == "clean" {
				if p.LinkLost != 0 || len(p.Gaps) != 0 || sess.DAP.Retries != 0 {
					t.Fatalf("clean scenario saw loss: lost %d, gaps %d, retries %d",
						p.LinkLost, len(p.Gaps), sess.DAP.Retries)
				}
				if uint64(len(msgs)) != framed {
					t.Fatalf("clean scenario delivered %d of %d messages", len(msgs), framed)
				}
				for name, se := range p.Series {
					if se.Confidence() != 1 {
						t.Errorf("%s: confidence %v on clean run", name, se.Confidence())
					}
				}
			}

			t.Logf("%-12s framed %6d delivered %6d lost %5d gaps %3d retries %4d",
				plan.Name, framed, p.MsgsDelivered, p.LinkLost, len(p.Gaps), sess.DAP.Retries)
		})
	}
}
