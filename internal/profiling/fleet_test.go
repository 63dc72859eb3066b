package profiling

import (
	"bytes"
	"fmt"
	"sync"
	"testing"

	"repro/internal/fault"
	"repro/internal/obs"
	"repro/internal/soc"
	"repro/internal/workload"
)

// Run returns the ingested run with the given ID (nil when absent).
func (fp *FleetProfile) Run(id string) *FleetRun {
	for i := range fp.Runs {
		if fp.Runs[i].ID == id {
			return &fp.Runs[i]
		}
	}
	return nil
}

// Param returns the aggregated parameter by name (nil when absent).
func (fp *FleetProfile) Param(name string) *FleetParam {
	for i := range fp.Params {
		if fp.Params[i].Param == name {
			return &fp.Params[i]
		}
	}
	return nil
}

func synthReport(app string, seed uint64, conf float64, ipcMean, ipcConf float64) *RunReport {
	return &RunReport{
		Schema: ReportSchemaVersion, App: app, Seed: seed, SoC: "TC1797ED",
		Cycles: 100_000, Confidence: conf,
		Params: map[string]ParamStats{
			"ipc": {Mean: ipcMean, Min: ipcMean - 0.1, Max: ipcMean + 0.1,
				Windows: 100, Confidence: ipcConf},
		},
	}
}

func TestAggregateWeighting(t *testing.T) {
	// Three clean runs near IPC 1.0 and one low-confidence run at 0.2:
	// the weighted mean must sit near 1.0, far above the unweighted mean.
	reports := []*RunReport{
		synthReport("a", 1, 1, 1.00, 1),
		synthReport("b", 2, 1, 1.02, 1),
		synthReport("c", 3, 1, 0.98, 1),
		synthReport("lossy", 4, 0.05, 0.20, 0.5),
	}
	fp, err := aggregate([]string{"a", "b", "c", "lossy"}, reports)
	if err != nil {
		t.Fatal(err)
	}
	if len(fp.Runs) != 4 {
		t.Fatalf("runs = %d", len(fp.Runs))
	}
	if w := fp.Run("lossy").Weight; w >= fp.Run("a").Weight {
		t.Errorf("lossy weight %v not below clean weight %v", w, fp.Run("a").Weight)
	}
	ipc := fp.Param("ipc")
	if ipc == nil || ipc.Runs != 4 {
		t.Fatalf("ipc = %+v", ipc)
	}
	if ipc.WeightedMean < 0.95 || ipc.WeightedMean > 1.02 {
		t.Errorf("weighted mean = %v, want ≈1.0 (lossy run down-weighted)", ipc.WeightedMean)
	}
	if ipc.Mean > 0.85 {
		t.Errorf("unweighted mean = %v, should be dragged down by the lossy run", ipc.Mean)
	}
	if ipc.Min >= 0.2 || ipc.Max <= 1.1 {
		t.Errorf("min/max = %v/%v", ipc.Min, ipc.Max)
	}
	// Distribution across run means: p50 within the clean cluster.
	if ipc.P50 < 0.98 || ipc.P50 > 1.02 {
		t.Errorf("p50 = %v", ipc.P50)
	}
}

func TestAggregateOutlierFlagging(t *testing.T) {
	var reports []*RunReport
	var ids []string
	for i := 0; i < 8; i++ {
		reports = append(reports, synthReport(fmt.Sprintf("r%d", i), uint64(i), 1, 1.0+0.001*float64(i), 1))
		ids = append(ids, fmt.Sprintf("r%d", i))
	}
	reports = append(reports, synthReport("weird", 99, 1, 5.0, 1))
	ids = append(ids, "weird")
	fp, err := aggregate(ids, reports)
	if err != nil {
		t.Fatal(err)
	}
	ipc := fp.Param("ipc")
	if len(ipc.Outliers) != 1 || ipc.Outliers[0] != "weird" {
		t.Errorf("outliers = %v, want [weird]", ipc.Outliers)
	}
}

// aggregate streams reports into a fresh Accumulator in slice order;
// ids[i] names reports[i], and a missing or empty ID is synthesized.
func aggregate(ids []string, reports []*RunReport) (*FleetProfile, error) {
	acc := NewAccumulator()
	for i, r := range reports {
		id := ""
		if i < len(ids) {
			id = ids[i]
		}
		acc.Add(id, r)
	}
	return acc.Finalize()
}

func TestAggregateEmptyAndIDSynthesis(t *testing.T) {
	if _, err := aggregate(nil, nil); err == nil {
		t.Error("empty fleet must error")
	}
	r := synthReport("app", 42, 1, 1, 1)
	r.FaultPlan = "noisy-link"
	fp, err := aggregate(nil, []*RunReport{r})
	if err != nil {
		t.Fatal(err)
	}
	if fp.Runs[0].ID != "app-seed42-noisy-link" {
		t.Errorf("synthesized ID = %q", fp.Runs[0].ID)
	}
}

// runForReport executes one full profiling run and returns its report,
// round-tripped through JSON exactly as tcprof -json → tcfleet would.
func runForReport(t *testing.T, faults string) *RunReport {
	t.Helper()
	cfg := soc.TC1797().WithED()
	s, app := buildApp(t, cfg, stdSpec())
	spec := Spec{Resolution: 500, Params: StandardParams(), DAP: true, Obs: obs.New()}
	if faults != "" {
		plan, err := fault.Parse(faults, stdSpec().Seed)
		if err != nil {
			t.Fatal(err)
		}
		spec.Fault = &plan
	}
	sess := NewSession(s, spec)
	mustRun(t, sess, app, 400_000)
	p, err := sess.Result("app")
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := sess.RunReport(p, stdSpec().Seed).WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	r, err := ReadRunReport(&buf)
	if err != nil {
		t.Fatal(err)
	}
	return r
}

// TestFleetCleanVsLossyIntegration is the acceptance-criterion test: a
// clean run and a -faults everything run, aggregated into a fleet profile
// in which the lossy run's weight is visibly lower.
func TestFleetCleanVsLossyIntegration(t *testing.T) {
	clean := runForReport(t, "")
	lossy := runForReport(t, "everything")

	if clean.Confidence != 1 {
		t.Errorf("clean confidence = %v, want 1", clean.Confidence)
	}
	if lossy.FaultPlan != "everything" || !lossy.Framed {
		t.Errorf("lossy meta = %+v", lossy)
	}
	if lossy.Loss.LinkLost == 0 && lossy.Loss.MsgsLost == 0 {
		t.Fatal("everything scenario lost nothing — fault injection inactive?")
	}
	if lossy.Confidence >= clean.Confidence {
		t.Fatalf("lossy confidence %v not below clean %v", lossy.Confidence, clean.Confidence)
	}

	fp, err := aggregate([]string{"clean.json", "lossy.json"}, []*RunReport{clean, lossy})
	if err != nil {
		t.Fatal(err)
	}
	cw, lw := fp.Run("clean.json").Weight, fp.Run("lossy.json").Weight
	if lw >= 0.98*cw {
		t.Errorf("lossy weight %v not visibly below clean weight %v", lw, cw)
	}
	ipc := fp.Param("ipc")
	if ipc == nil || ipc.Runs != 2 {
		t.Fatalf("fleet ipc = %+v", ipc)
	}
	// Both runs measured the same deterministic application, so the
	// weighted mean must stay close to the clean run's measurement.
	cleanIPC := clean.Params["ipc"].Mean
	if d := ipc.WeightedMean - cleanIPC; d > 0.05 || d < -0.05 {
		t.Errorf("fleet weighted IPC %v strayed from clean %v", ipc.WeightedMean, cleanIPC)
	}
}

// TestAccumulatorOrderIndependence is the determinism contract the
// campaign runner builds on: streaming reports into an Accumulator in
// any order — including concurrently from many goroutines — must yield
// a profile byte-identical to in-order ingest of the same reports.
func TestAccumulatorOrderIndependence(t *testing.T) {
	var reports []*RunReport
	var ids []string
	for i := 0; i < 16; i++ {
		conf := 1.0
		if i%5 == 0 {
			conf = 0.3 + 0.02*float64(i)
		}
		reports = append(reports, synthReport(fmt.Sprintf("app%d", i), uint64(i), conf, 0.9+0.01*float64(i), conf))
		ids = append(ids, fmt.Sprintf("run%02d", i))
	}
	want, err := aggregate(ids, reports)
	if err != nil {
		t.Fatal(err)
	}
	wantJSON := mustFleetJSON(t, want)

	// Reversed sequential order.
	rev := NewAccumulator()
	for i := len(reports) - 1; i >= 0; i-- {
		rev.Add(ids[i], reports[i])
	}
	if got, err := rev.Finalize(); err != nil {
		t.Fatal(err)
	} else if j := mustFleetJSON(t, got); !bytes.Equal(j, wantJSON) {
		t.Error("reversed ingest order changed the canonical profile")
	}

	// Concurrent ingest from one goroutine per report (run with -race).
	conc := NewAccumulator()
	var wg sync.WaitGroup
	for i := range reports {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			conc.Add(ids[i], reports[i])
		}(i)
	}
	wg.Wait()
	if conc.Len() != len(reports) {
		t.Fatalf("accumulator holds %d runs, want %d", conc.Len(), len(reports))
	}
	got, err := conc.Finalize()
	if err != nil {
		t.Fatal(err)
	}
	if j := mustFleetJSON(t, got); !bytes.Equal(j, wantJSON) {
		t.Error("concurrent ingest changed the canonical profile")
	}
	// Finalize must not freeze the accumulator: keep streaming and the
	// next snapshot reflects the extra run.
	conc.Add("late", synthReport("late", 99, 1, 1.5, 1))
	if got, err := conc.Finalize(); err != nil || got.Run("late") == nil {
		t.Fatalf("post-Finalize ingest lost: run=%v err=%v", got.Run("late"), err)
	}
}

func mustFleetJSON(t *testing.T, fp *FleetProfile) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := fp.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// The canonical observability-overhead measurement: a full profiling
// session over the standard workload, instrumented (live registry on
// every layer) vs obs.Disabled. Acceptance: ≤5% slowdown.
func benchSessionObs(b *testing.B, reg *obs.Registry) {
	cfg := soc.TC1797().WithED()
	s := soc.New(cfg, 3)
	app, err := workload.Build(s, stdSpec())
	if err != nil {
		b.Fatal(err)
	}
	sess := NewSession(s, Spec{Resolution: 500, Params: StandardParams(), DAP: true, Obs: reg})
	b.ResetTimer()
	mustRun(b, sess, app, uint64(b.N))
}

func BenchmarkSessionObsDisabled(b *testing.B)     { benchSessionObs(b, obs.Disabled) }
func BenchmarkSessionObsInstrumented(b *testing.B) { benchSessionObs(b, obs.New()) }
