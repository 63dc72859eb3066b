package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func writeReport(t *testing.T, dir, name string, results []Result) string {
	t.Helper()
	path := filepath.Join(dir, name)
	b, err := json.Marshal(&Report{Schema: 1, Results: results})
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, b, 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestCompareClean(t *testing.T) {
	dir := t.TempDir()
	old := writeReport(t, dir, "old.json", []Result{
		{Name: "BenchmarkA", NsOp: 100},
		{Name: "BenchmarkSoC", NsOp: 50, Extra: map[string]float64{cyclesMetric: 2e6}},
	})
	now := writeReport(t, dir, "new.json", []Result{
		{Name: "BenchmarkA", NsOp: 102}, // +2%: inside 5% tolerance
		{Name: "BenchmarkSoC", NsOp: 40, Extra: map[string]float64{cyclesMetric: 2.5e6}},
		{Name: "BenchmarkNew", NsOp: 7}, // added benchmarks never fail the gate
	})
	var sb strings.Builder
	if err := runCompare(old, now, 0.05, &sb); err != nil {
		t.Fatalf("clean compare failed: %v\noutput:\n%s", err, sb.String())
	}
	out := sb.String()
	for _, want := range []string{"BenchmarkA", "BenchmarkSoC", "new", "no regressions"} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
}

func TestCompareNsOpRegression(t *testing.T) {
	dir := t.TempDir()
	old := writeReport(t, dir, "old.json", []Result{{Name: "BenchmarkA", NsOp: 100}})
	now := writeReport(t, dir, "new.json", []Result{{Name: "BenchmarkA", NsOp: 120}})
	var sb strings.Builder
	err := runCompare(old, now, 0.05, &sb)
	if err == nil {
		t.Fatalf("+20%% ns/op passed the 5%% gate:\n%s", sb.String())
	}
	if !strings.Contains(sb.String(), "REGRESSION") {
		t.Errorf("table does not flag the regression:\n%s", sb.String())
	}
	// A wider tolerance lets the same delta through.
	sb.Reset()
	if err := runCompare(old, now, 0.25, &sb); err != nil {
		t.Fatalf("+20%% ns/op failed the 25%% gate: %v", err)
	}
}

func TestCompareThroughputRegression(t *testing.T) {
	// ns/op improves but the simcycles/s throughput metric collapses —
	// the gate must still fire (throughput is the paper-level number).
	dir := t.TempDir()
	old := writeReport(t, dir, "old.json", []Result{
		{Name: "BenchmarkSoC", NsOp: 100, Extra: map[string]float64{cyclesMetric: 2e6}},
	})
	now := writeReport(t, dir, "new.json", []Result{
		{Name: "BenchmarkSoC", NsOp: 90, Extra: map[string]float64{cyclesMetric: 1e6}},
	})
	var sb strings.Builder
	if err := runCompare(old, now, 0.05, &sb); err == nil {
		t.Fatalf("-50%% %s passed the gate:\n%s", cyclesMetric, sb.String())
	}
}

func TestCompareMissingBenchmark(t *testing.T) {
	dir := t.TempDir()
	old := writeReport(t, dir, "old.json", []Result{
		{Name: "BenchmarkA", NsOp: 100},
		{Name: "BenchmarkGone", NsOp: 100},
	})
	now := writeReport(t, dir, "new.json", []Result{{Name: "BenchmarkA", NsOp: 100}})
	var sb strings.Builder
	err := runCompare(old, now, 0.05, &sb)
	if err == nil {
		t.Fatalf("dropped benchmark passed the gate:\n%s", sb.String())
	}
	if !strings.Contains(sb.String(), "MISSING") {
		t.Errorf("table does not mark the dropped benchmark:\n%s", sb.String())
	}
}

func TestCompareGeomeanLine(t *testing.T) {
	// Two benchmarks at ratios 2.0 and 0.5: per-benchmark one regresses,
	// but here we only check the printed aggregate — geomean(2.0, 0.5) is
	// exactly 1.0, so the line must read +0.0%.
	dir := t.TempDir()
	old := writeReport(t, dir, "old.json", []Result{
		{Name: "BenchmarkA", NsOp: 100, Extra: map[string]float64{cyclesMetric: 1e6}},
		{Name: "BenchmarkB", NsOp: 100, Extra: map[string]float64{cyclesMetric: 1e6}},
	})
	now := writeReport(t, dir, "new.json", []Result{
		{Name: "BenchmarkA", NsOp: 200, Extra: map[string]float64{cyclesMetric: 0.5e6}},
		{Name: "BenchmarkB", NsOp: 50, Extra: map[string]float64{cyclesMetric: 2e6}},
	})
	var sb strings.Builder
	// Tolerance wide enough that the per-benchmark +100% passes; only the
	// aggregate line's arithmetic is under test.
	if err := runCompare(old, now, 1.5, &sb); err != nil {
		t.Fatalf("compare failed: %v\n%s", err, sb.String())
	}
	out := sb.String()
	if !strings.Contains(out, "geomean(2)") {
		t.Errorf("output missing geomean line over 2 benchmarks:\n%s", out)
	}
	line := ""
	for _, l := range strings.Split(out, "\n") {
		if strings.HasPrefix(l, "geomean(") {
			line = l
		}
	}
	if c := strings.Count(line, "+0.0%"); c != 2 {
		t.Errorf("geomean of balanced 2x/0.5x ratios must be +0.0%% for both metrics, got %q", line)
	}
}

func TestCompareGeomeanGate(t *testing.T) {
	// Three +4% slowdowns each slip under the 5% per-benchmark gate, but
	// their geomean (+4%) must still trip once it exceeds the tolerance.
	dir := t.TempDir()
	old := writeReport(t, dir, "old.json", []Result{
		{Name: "BenchmarkA", NsOp: 100},
		{Name: "BenchmarkB", NsOp: 100},
		{Name: "BenchmarkC", NsOp: 100},
	})
	now := writeReport(t, dir, "new.json", []Result{
		{Name: "BenchmarkA", NsOp: 104},
		{Name: "BenchmarkB", NsOp: 104},
		{Name: "BenchmarkC", NsOp: 104},
	})
	var sb strings.Builder
	if err := runCompare(old, now, 0.05, &sb); err != nil {
		t.Fatalf("+4%% everywhere must pass a 5%% gate: %v\n%s", err, sb.String())
	}
	sb.Reset()
	err := runCompare(old, now, 0.03, &sb)
	if err == nil {
		t.Fatalf("+4%% geomean passed a 3%% gate:\n%s", sb.String())
	}
	if !strings.Contains(sb.String(), "geomean(3)") || !strings.Contains(sb.String(), "REGRESSION") {
		t.Errorf("geomean line does not flag the aggregate regression:\n%s", sb.String())
	}
}

func TestCompareNegativeToleranceMustBeFaster(t *testing.T) {
	// A negative tolerance turns the gate into a must-be-faster check:
	// -tol -0.2 demands ns/op <= 0.8x (>= 1.25x speedup). Used by CI to
	// hold the chained dispatcher above the per-word reference decoder.
	dir := t.TempDir()
	old := writeReport(t, dir, "old.json", []Result{
		{Name: "BenchmarkSoCBranchy", NsOp: 100, Extra: map[string]float64{cyclesMetric: 1e6}},
	})
	fast := writeReport(t, dir, "fast.json", []Result{
		{Name: "BenchmarkSoCBranchy", NsOp: 75, Extra: map[string]float64{cyclesMetric: 1.4e6}},
	})
	slow := writeReport(t, dir, "slow.json", []Result{
		{Name: "BenchmarkSoCBranchy", NsOp: 90, Extra: map[string]float64{cyclesMetric: 1.1e6}},
	})
	var sb strings.Builder
	if err := runCompare(old, fast, -0.2, &sb); err != nil {
		t.Fatalf("1.33x speedup failed the >=1.25x gate: %v\n%s", err, sb.String())
	}
	sb.Reset()
	if err := runCompare(old, slow, -0.2, &sb); err == nil {
		t.Fatalf("1.11x speedup passed the >=1.25x gate:\n%s", sb.String())
	}
}

func TestParseThenCompareRoundTrip(t *testing.T) {
	// End-to-end: bench text -> parseBench -> Report JSON -> compare.
	lines := []string{
		"BenchmarkSoCHotLoop-8   120  9500 ns/op  2100000 simcycles/s",
		"BenchmarkEncode-8   100000  85.0 ns/op  0 B/op  0 allocs/op",
	}
	var results []Result
	for _, l := range lines {
		r, ok := parseBench(l)
		if !ok {
			t.Fatalf("parseBench rejected %q", l)
		}
		results = append(results, r)
	}
	if results[0].Extra[cyclesMetric] != 2.1e6 {
		t.Fatalf("custom metric not captured: %+v", results[0])
	}
	dir := t.TempDir()
	path := writeReport(t, dir, "r.json", results)
	var sb strings.Builder
	if err := runCompare(path, path, 0.0, &sb); err != nil {
		t.Fatalf("self-compare at zero tolerance failed: %v\n%s", err, sb.String())
	}
}
