package core

import (
	"errors"
	"strings"
	"testing"

	"repro/internal/soc"
	"repro/internal/workload"
)

func testFleet() []workload.Spec {
	return []workload.Spec{
		{Name: "flashy", Seed: 11, CodeKB: 32, TableKB: 32, FilterTaps: 8,
			DiagBranches: 8, ADCPeriod: 3000, TimerPeriod: 10000, CANMeanGap: 6000},
		{Name: "compute", Seed: 12, CodeKB: 4, TableKB: 4, FilterTaps: 32,
			DiagBranches: 4, ADCPeriod: 4000, TimerPeriod: 12000, CANMeanGap: 8000,
			TablesInScratch: true},
	}
}

func quickParams() EvalParams {
	return EvalParams{
		Iters:          120,
		Limit:          50_000_000,
		ProfileHorizon: 200_000,
	}
}

func TestProfileApp(t *testing.T) {
	ap, err := ProfileApp(soc.TC1797(), testFleet()[0], 200_000)
	if err != nil {
		t.Fatal(err)
	}
	if ap.CPI <= 1.0/3 || ap.CPI > 50 {
		t.Errorf("CPI = %v", ap.CPI)
	}
	if ap.Rates["dflash_read"] <= 0 {
		t.Error("flash-heavy app shows no data flash reads")
	}
	if ap.FlashWS == 0 {
		t.Error("config snapshot missing")
	}
	if s := ap.String(); s == "" {
		t.Error("empty summary")
	}
}

func TestMeasureCyclesEqualWork(t *testing.T) {
	cfg := soc.TC1797()
	spec := testFleet()[0]
	cy1, app, err := MeasureCycles(cfg, spec, 100, 50_000_000)
	if err != nil {
		t.Fatal(err)
	}
	if app.SoC.CPU.Reg(workload.IterReg) < 100 {
		t.Error("iteration target not reached")
	}
	cy2, _, err := MeasureCycles(cfg, spec, 100, 50_000_000)
	if err != nil {
		t.Fatal(err)
	}
	if cy1 != cy2 {
		t.Errorf("measurement not reproducible: %d vs %d", cy1, cy2)
	}
	// More work costs more cycles.
	cy3, _, err := MeasureCycles(cfg, spec, 200, 50_000_000)
	if err != nil {
		t.Fatal(err)
	}
	if cy3 <= cy1 {
		t.Errorf("200 iterations (%d cy) not slower than 100 (%d cy)", cy3, cy1)
	}
}

func TestMeasureCyclesRejectsZeroIters(t *testing.T) {
	if _, _, err := MeasureCycles(soc.TC1797(), testFleet()[0], 0, 50_000_000); err == nil {
		t.Fatal("zero iterations must be an error, not a zero-cycle measurement")
	}
}

func TestEvaluateRejectsEmptyFleet(t *testing.T) {
	prm := quickParams()
	prm.SkipMeasured = true
	if _, err := Evaluate(soc.TC1797(), nil, Catalog(), prm); err == nil {
		t.Fatal("an empty fleet must be an error, not a ranking on no data")
	}
}

func TestAnalyticalEstimatesDirectionallyCorrect(t *testing.T) {
	ap, err := ProfileApp(soc.TC1797(), testFleet()[0], 200_000)
	if err != nil {
		t.Fatal(err)
	}
	for _, opt := range Catalog() {
		est := opt.Estimate(ap)
		switch {
		case opt.Name == "prefetch-off" || opt.Name == "flash-arb-fcfs":
			if est > 1 {
				t.Errorf("%s: ablation estimated as a gain (%.3f)", opt.Name, est)
			}
		case opt.CostSaver():
			if est > 1 {
				t.Errorf("%s: cost saver estimated as a gain (%.3f)", opt.Name, est)
			}
			if est < 0.9 {
				t.Errorf("%s: cost saver loses too much (%.3f)", opt.Name, est)
			}
		default:
			if est < 1 {
				t.Errorf("%s: improvement estimated as a loss (%.3f)", opt.Name, est)
			}
			if est > 3 {
				t.Errorf("%s: estimate implausibly high (%.3f)", opt.Name, est)
			}
		}
	}
}

func TestEvaluateRanksFlashPathFirst(t *testing.T) {
	if testing.Short() {
		t.Skip("full evaluation is slow")
	}
	ev, err := Evaluate(soc.TC1797(), testFleet(), Catalog(), quickParams())
	if err != nil {
		t.Fatal(err)
	}
	if len(ev.Ranking) != len(Catalog()) {
		t.Fatalf("ranking has %d entries", len(ev.Ranking))
	}
	best, ok := ev.Best()
	if !ok {
		t.Fatal("no acceptable option")
	}
	// The paper's claim: the CPU→flash path is the main lever. The top
	// option must touch the flash path (cache, wait states, buffers, or
	// scratchpad that removes flash traffic).
	flashPath := map[string]bool{"icache-2x": true, "dcache-2x": true,
		"flash-ws-1": true, "flash-buffers-2x": true, "dspr-2x": true}
	if !flashPath[best.Option.Name] {
		t.Errorf("best option %q is not on the flash path", best.Option.Name)
	}
	// Ablation controls must be rejected or rank last among accepted.
	for _, r := range ev.Ranking {
		if r.Option.Name == "prefetch-off" && !r.Rejected && r.MeaMean > 1.001 {
			t.Errorf("prefetch-off measured as a gain: %+v", r.MeaMean)
		}
	}
	// Measured means must be broadly consistent with estimates (same
	// direction) for the accepted top option.
	if best.MeaMean < 1 {
		t.Errorf("best option measured as a loss: %v", best.MeaMean)
	}
}

func TestFModelConverges(t *testing.T) {
	if testing.Short() {
		t.Skip("generational run is slow")
	}
	prm := quickParams()
	prm.Iters = 80
	chain, err := FModel(soc.TC1797(), testFleet()[:1], Catalog()[:5], prm, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(chain) < 2 {
		t.Fatalf("no generation produced: %d", len(chain))
	}
	if chain[0].Chosen == nil {
		t.Fatal("generation 0 chose nothing")
	}
	// Each generation that chose a successor carries the ranking that
	// chose it.
	for i, g := range chain {
		if g.Chosen == nil {
			continue
		}
		if best, ok := g.Eval.Best(); !ok || best.Option.Name != g.Chosen.Option.Name {
			t.Errorf("gen %d: Eval best = %v, chosen %s", i, best.Option.Name, g.Chosen.Option.Name)
		}
	}
	if len(chain) == 3 && chain[2].Eval != nil {
		t.Error("unevaluated last generation carries an Eval")
	}
	if chain[1].Config.Name == chain[0].Config.Name {
		t.Error("generation name did not evolve")
	}
}

func TestGeomean(t *testing.T) {
	if g := geomean(nil); g != 1 {
		t.Errorf("geomean(nil) = %v", g)
	}
	if g := geomean([]float64{2, 8}); g < 3.99 || g > 4.01 {
		t.Errorf("geomean(2,8) = %v", g)
	}
}

// failingWriter accepts room bytes, then fails every write.
type failingWriter struct{ room int }

var errDiskFull = errors.New("disk full")

func (w *failingWriter) Write(p []byte) (int, error) {
	if len(p) > w.room {
		n := w.room
		w.room = 0
		return n, errDiskFull
	}
	w.room -= len(p)
	return len(p), nil
}

// TestReportMarkdownWriteError checks that a failed write surfaces, both
// on the first line and after some lines went through.
func TestReportMarkdownWriteError(t *testing.T) {
	rep := &Report{Title: "t", Profiles: []AppProfile{{App: "a", CPI: 1}},
		Eval: &Evaluation{Base: soc.TC1797()}}
	for _, room := range []int{0, 64} {
		if err := rep.WriteMarkdown(&failingWriter{room: room}); !errors.Is(err, errDiskFull) {
			t.Errorf("room %d: WriteMarkdown = %v, want %v", room, err, errDiskFull)
		}
	}
}

func TestReportMarkdown(t *testing.T) {
	if testing.Short() {
		t.Skip("slow")
	}
	fleet := testFleet()
	prm := quickParams()
	var profiles []AppProfile
	for _, sp := range fleet {
		ap, err := ProfileApp(soc.TC1797(), sp, prm.ProfileHorizon)
		if err != nil {
			t.Fatal(err)
		}
		profiles = append(profiles, ap)
	}
	ev, err := Evaluate(soc.TC1797(), fleet, Catalog()[:4], prm)
	if err != nil {
		t.Fatal(err)
	}
	var b strings.Builder
	rep := &Report{Title: "test report", Profiles: profiles, Eval: ev}
	if err := rep.WriteMarkdown(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{"# test report", "## Fleet profiles",
		"## Option ranking", "## Recommendation", "flashy", "compute",
		"fetch stalls (flash path)"} {
		if !strings.Contains(out, want) {
			t.Errorf("report missing %q", want)
		}
	}
}

// TestSweepMonotonicOnWaitStates measures equal work at rising flash wait
// states: every added wait state must cost cycles.
func TestSweepMonotonicOnWaitStates(t *testing.T) {
	if testing.Short() {
		t.Skip("slow")
	}
	spec := testFleet()[0]
	var prev uint64
	for _, ws := range []uint64{2, 6, 12} {
		cfg := soc.TC1797()
		cfg.Flash.WaitStates = ws
		cy, _, err := MeasureCycles(cfg, spec, 120, 50_000_000)
		if err != nil {
			t.Fatal(err)
		}
		if cy <= prev {
			t.Errorf("%d wait states took %d cycles, not more than the previous %d", ws, cy, prev)
		}
		prev = cy
	}
}
