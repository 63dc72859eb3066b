package campaign

import (
	"context"
	"fmt"
	"testing"

	"repro/internal/obs"
)

// benchMatrix is the BENCH_pr3 scaling matrix: 8 independent sessions
// of 50k cycles each, so a pool of up to 8 workers has enough parallel
// slack to show its scaling curve.
func benchMatrix() Matrix {
	return Matrix{
		Name:        "bench",
		Seed:        11,
		Seeds:       2,
		SoCs:        []string{"TC1797"},
		Mixes:       []string{"lean", "engine"},
		Faults:      []string{"clean", "everything"},
		Resolutions: []uint64{1000},
		Cycles:      50_000,
	}
}

// BenchmarkCampaignJournal measures the supervisor's write-ahead
// journal overhead on a clean campaign (the BENCH_pr4 comparison,
// which measured the older per-file format): journal=on adds one
// fsync'd journal line per cell. The difference is below this benchmark's run-to-run
// noise on a shared host, so CI records it without gating on it.
func BenchmarkCampaignJournal(b *testing.B) {
	m := benchMatrix()
	for _, journal := range []bool{false, true} {
		name := "journal=off"
		if journal {
			name = "journal=on"
		}
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				opt := Options{Workers: 4}
				if journal {
					opt.JournalDir = b.TempDir()
				}
				res, err := Run(context.Background(), m, opt)
				if err != nil {
					b.Fatal(err)
				}
				if res.Completed != res.Cells {
					b.Fatalf("completed %d of %d", res.Completed, res.Cells)
				}
				b.ReportMetric(float64(res.SimCycles)/res.Wall.Seconds(), "simcycles/s")
			}
		})
	}
}

// BenchmarkCampaignTelemetry measures the full telemetry plane's
// overhead on a clean campaign (the BENCH_pr7 comparison): with
// telemetry=on every cell transition goes through the obs registry, the
// tracer, the Status scoreboard, and the flight-recorder ring; it must
// stay within the ≤5% envelope of the telemetry=off (all-nil) run.
func BenchmarkCampaignTelemetry(b *testing.B) {
	m := benchMatrix()
	for _, on := range []bool{false, true} {
		name := "telemetry=off"
		if on {
			name = "telemetry=on"
		}
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				opt := Options{Workers: 4}
				if on {
					opt.Obs = obs.New()
					opt.Tracer = obs.NewTracer()
					opt.Status = NewStatus(obs.NewEventLog(obs.DefaultEventLogSize))
				}
				res, err := Run(context.Background(), m, opt)
				if err != nil {
					b.Fatal(err)
				}
				if res.Completed != res.Cells {
					b.Fatalf("completed %d of %d", res.Completed, res.Cells)
				}
				b.ReportMetric(float64(res.SimCycles)/res.Wall.Seconds(), "simcycles/s")
			}
		})
	}
}

// BenchmarkCampaignWorkers measures campaign wall time against worker
// count (the BENCH_pr3 scaling curve). On a single-CPU host the curve
// is flat — the workers serialize on GOMAXPROCS — so the speedup
// acceptance is judged on multi-core CI runners.
func BenchmarkCampaignWorkers(b *testing.B) {
	m := benchMatrix()
	for _, workers := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				res, err := Run(context.Background(), m, Options{Workers: workers})
				if err != nil {
					b.Fatal(err)
				}
				if res.Completed != res.Cells {
					b.Fatalf("completed %d of %d", res.Completed, res.Cells)
				}
				b.ReportMetric(float64(res.SimCycles)/res.Wall.Seconds(), "simcycles/s")
			}
		})
	}
}
