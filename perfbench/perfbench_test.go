package main

import (
	"bytes"
	"os"
	"strings"
	"testing"
)

func TestTailPercentile(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
	}{
		{0, 0}, {19, 0}, {20, 50}, {39, 50}, {40, 75}, {50, 80}, {99, 80},
		{100, 90}, {199, 90}, {200, 95}, {999, 95}, {1000, 99}, {10000, 99.9},
	} {
		if got := tailPercentile(c.n); got != c.want {
			t.Errorf("tailPercentile(%d) = %v, want %v", c.n, got, c.want)
		}
	}
	// Every workload reports a tail that leaves ten ops beyond it at its
	// guaranteed op count.
	for _, w := range workloads {
		if w.tail == 0 || float64(w.minOps)*(1-w.tail/100) < 10-1e-9 {
			t.Errorf("%s: p%v of %d ops leaves fewer than ten beyond", w.name, w.tail, w.minOps)
		}
	}
}

func TestPercentile(t *testing.T) {
	xs := []float64{5, 1, 4, 2, 3}
	for _, c := range []struct{ p, want float64 }{{0, 1}, {50, 3}, {75, 4}, {90, 4.6}, {100, 5}} {
		if got := percentile(xs, c.p); got < c.want-1e-9 || got > c.want+1e-9 {
			t.Errorf("percentile(%v) = %v, want %v", c.p, got, c.want)
		}
	}
	if xs[0] != 5 {
		t.Error("percentile sorted its input")
	}
}

func TestMetricGrammar(t *testing.T) {
	if err := checkMetrics(endToEnd, true); err != nil {
		t.Fatal(err)
	}
	if err := checkMetrics(perLayer, false); err != nil {
		t.Fatal(err)
	}
	for _, bad := range []metric{
		{Name: "op latency", Unit: "ms", Better: "lower", Bound: 0.1},
		{Name: "_op", Unit: "ms", Better: "lower", Bound: 0.1},
		{Name: strings.Repeat("x", 65), Unit: "ms", Better: "lower", Bound: 0.1},
		{Name: "op", Unit: "m s", Better: "lower", Bound: 0.1},
		{Name: "op", Unit: strings.Repeat("s", 17), Better: "lower", Bound: 0.1},
		{Name: "op", Unit: "ms", Better: "faster", Bound: 0.1},
		{Name: "op", Unit: "ms", Better: "lower", Bound: 0.3},
		{Name: "op", Unit: "ms", Better: "lower", Bound: 0},
	} {
		if checkMetrics([]metric{bad}, true) == nil {
			t.Errorf("accepted %+v", bad)
		}
	}
	dup := metric{Name: "a", Unit: "s", Better: "lower", Bound: 0.1}
	if checkMetrics([]metric{dup, dup}, true) == nil {
		t.Error("accepted a duplicate name")
	}
	if checkMetrics([]metric{dup}, false) == nil {
		t.Error("accepted a bound on a per-layer metric")
	}

	// setup_s is in seconds, lower is better, and has the largest bound.
	var setup metric
	for _, m := range endToEnd {
		if m.Name == "setup_s" {
			setup = m
		}
	}
	if setup.Unit != "s" || setup.Better != "lower" {
		t.Fatalf("setup_s = %+v", setup)
	}
	for _, m := range endToEnd {
		if m.Bound > setup.Bound {
			t.Errorf("%s bound %v exceeds setup_s's %v", m.Name, m.Bound, setup.Bound)
		}
	}
	for _, w := range workloads {
		if !nameRE.MatchString(w.name) || len(w.why()) > 200 || strings.ContainsAny(w.why(), "\n\r") {
			t.Errorf("workload %q: bad name or why %q", w.name, w.why())
		}
	}
}

// TestManifestUpToDate keeps BENCHMARK.json generated from the tables
// here; regenerate it with go run . -manifest ../BENCHMARK.json.
func TestManifestUpToDate(t *testing.T) {
	want, err := manifest()
	if err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("BENCHMARK.json is stale; regenerate it with go run . -manifest ../BENCHMARK.json")
	}
}

func TestOpSeedsDeriveFromRunSeed(t *testing.T) {
	a, b, c := mixInputs(1), mixInputs(1), mixInputs(2)
	seen := map[uint64]bool{}
	for i := range a {
		if a[i] != b[i] {
			t.Errorf("same run seed, different input %d: %+v vs %+v", i, a[i], b[i])
		}
		if a[i].Seed == c[i].Seed {
			t.Errorf("run seeds 1 and 2 share input %d's seed", i)
		}
		if seen[a[i].Seed] {
			t.Errorf("input %d repeats a per-op seed", i)
		}
		seen[a[i].Seed] = true
	}
}

// TestSmokeGoldens runs one untraced and one traced round of every
// workload at a tiny horizon and checks every output against the golden
// digests, the per-op invariants, and the untraced-vs-traced repeat.
func TestSmokeGoldens(t *testing.T) {
	gold, err := loadGoldens()
	if err != nil {
		t.Fatal(err)
	}
	if gold.HeldoutSeed == gold.DefaultSeed {
		t.Fatal("the held-out seed must differ from the default seed")
	}
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			want := gold.Digests[w.name+"/smoke"]
			if len(want) == 0 {
				t.Fatal("no smoke goldens")
			}
			b := newBench(w, w.smoke, gold.DefaultSeed, t.TempDir(), want)
			b.oneRound()
			if b.failed > 0 {
				t.Fatal(strings.Join(b.failures, "\n"))
			}
			if len(b.seen) != len(want) {
				t.Errorf("%d outputs checked, %d goldens", len(b.seen), len(want))
			}
		})
	}
}

// TestMismatchesFail checks that a wrong golden digest and a changed
// repeat both count as failed ops.
func TestMismatchesFail(t *testing.T) {
	w := findWorkload("session")
	b := newBench(w, w.smoke, 5, t.TempDir(), map[string]string{"engine.0/report": "0"})
	b.do(b.inputs[0], instr{})
	if b.failed != 1 || !strings.Contains(b.failures[0], "golden") {
		t.Fatalf("golden mismatch not failed: %v", b.failures)
	}
	b = newBench(w, w.smoke, 5, t.TempDir(), nil)
	res, ok := b.do(b.inputs[0], instr{})
	if !ok {
		t.Fatal(b.failures)
	}
	res.digest = "changed"
	b.seen["engine.0/report"] = res
	b.do(b.inputs[0], instr{})
	if b.failed != 1 || !strings.Contains(b.failures[0], "earlier repeat") {
		t.Fatalf("changed repeat not failed: %v", b.failures)
	}
}
