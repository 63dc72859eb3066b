package campaign

import (
	"bytes"
	"context"
	"math"
	"strings"
	"sync"
	"testing"

	"repro/internal/obs"
	"repro/internal/profiling"
)

// testMatrix is small enough to run under -race yet spans every
// dimension: 2 seed variants × 2 SoCs × 1 mix × 2 fault specs × 1
// resolution = 8 cells.
func testMatrix() Matrix {
	return Matrix{
		Name:        "test",
		Seed:        7,
		Seeds:       2,
		SoCs:        []string{"TC1797", "TC1767"},
		Mixes:       []string{"lean"},
		Faults:      []string{"clean", "everything"},
		Resolutions: []uint64{500},
		Cycles:      60_000,
	}
}

func TestExpandCanonical(t *testing.T) {
	m := testMatrix()
	cells, err := m.Expand()
	if err != nil {
		t.Fatal(err)
	}
	if len(cells) != 8 || m.Size() != 8 {
		t.Fatalf("expanded %d cells, Size() = %d, want 8", len(cells), m.Size())
	}
	seeds := map[uint64]bool{}
	ids := map[string]bool{}
	for i, c := range cells {
		if c.Index != i {
			t.Errorf("cell %d has index %d", i, c.Index)
		}
		if i > 0 && !(cells[i-1].ID < c.ID) {
			t.Errorf("IDs not in lexical index order: %q !< %q", cells[i-1].ID, c.ID)
		}
		if seeds[c.Run.Seed] {
			t.Errorf("duplicate derived seed %d at cell %s", c.Run.Seed, c.ID)
		}
		seeds[c.Run.Seed] = true
		if ids[c.ID] {
			t.Errorf("duplicate ID %s", c.ID)
		}
		ids[c.ID] = true
		if c.Run.Faults == "everything" && !c.Run.Framed {
			t.Errorf("cell %s injects faults without a framed link", c.ID)
		}
		if err := c.Run.Validate(); err != nil {
			t.Errorf("cell %s invalid: %v", c.ID, err)
		}
	}
	// Expansion is a pure function of the matrix.
	again, err := testMatrix().Expand()
	if err != nil {
		t.Fatal(err)
	}
	for i := range cells {
		if cells[i] != again[i] {
			t.Fatalf("re-expansion differs at cell %d: %+v vs %+v", i, cells[i], again[i])
		}
	}
}

func TestExpandRejectsBadCells(t *testing.T) {
	for _, m := range []Matrix{
		{Mixes: []string{"nope"}},
		{SoCs: []string{"TC9999"}},
		{Faults: []string{"not-a-scenario"}},
		{Resolutions: []uint64{0}},
		{Schema: MatrixSchemaVersion + 1},
	} {
		if _, err := m.Expand(); err == nil {
			t.Errorf("matrix %+v expanded without error", m)
		}
	}
}

// TestExpandBoundsSize: Size saturates instead of wrapping, and a matrix
// past maxCells is an error before anything is allocated for it.
func TestExpandBoundsSize(t *testing.T) {
	huge := Matrix{Seeds: math.MaxInt, Mixes: []string{"lean", "engine"}}
	if n := huge.Size(); n != math.MaxInt {
		t.Errorf("Size of an overflowing matrix = %d, want math.MaxInt", n)
	}
	for _, m := range []Matrix{huge, {Seeds: 2_000_000_000}, {Seeds: maxCells + 1}} {
		if _, err := m.Expand(); err == nil || !strings.Contains(err.Error(), "more than 65536 cells") {
			t.Errorf("matrix of %d cells: err = %v, want the cell cap", m.Size(), err)
		}
	}
	if n := (Matrix{Seeds: 4, Faults: []string{"clean", "everything"}}).Size(); n != 8 {
		t.Errorf("Size = %d, want 8", n)
	}
}

func TestSpecRoundTrip(t *testing.T) {
	spec := `{
		"schema_version": 1,
		"name": "smoke",
		"seed": 42,
		"seeds": 2,
		"socs": ["TC1797"],
		"mixes": ["lean", "engine"],
		"faults": ["clean"],
		"resolutions": [500, 1000],
		"cycles": 50000,
		"framed": true
	}`
	m, err := Read(strings.NewReader(spec))
	if err != nil {
		t.Fatal(err)
	}
	if m.Name != "smoke" || m.Seed != 42 || m.Size() != 8 || !m.Framed {
		t.Fatalf("parsed matrix = %+v", m)
	}
	if _, err := Read(strings.NewReader(`{"cycels": 1}`)); err == nil {
		t.Error("typo'd field accepted — DisallowUnknownFields not active")
	}
	if _, err := Read(strings.NewReader(`{"schema_version": 99}`)); err == nil {
		t.Error("future schema accepted")
	}
}

func profileJSON(t *testing.T, res *Result) []byte {
	t.Helper()
	if res.Profile == nil {
		t.Fatal("campaign produced no profile")
	}
	var buf bytes.Buffer
	if err := res.Profile.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestCampaignDeterministicAcrossWorkers is the tentpole acceptance
// test: the same matrix, run single-threaded and with an oversubscribed
// worker pool, must yield byte-identical canonical aggregate JSON.
func TestCampaignDeterministicAcrossWorkers(t *testing.T) {
	m := testMatrix()
	seq, err := Run(context.Background(), m, Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	if seq.Completed != 8 || seq.Failed != 0 || seq.Canceled {
		t.Fatalf("sequential run = %+v", seq)
	}
	if seq.SimCycles != 8*m.Cycles {
		t.Errorf("sim cycles = %d, want %d", seq.SimCycles, 8*m.Cycles)
	}
	want := profileJSON(t, seq)

	par, err := Run(context.Background(), m, Options{Workers: 8, Obs: obs.New(), Tracer: obs.NewTracer()})
	if err != nil {
		t.Fatal(err)
	}
	if par.Completed != 8 || par.Failed != 0 {
		t.Fatalf("parallel run = %+v", par)
	}
	if got := profileJSON(t, par); !bytes.Equal(got, want) {
		t.Error("aggregate JSON differs between -workers 1 and -workers 8")
	}
	// The lossy half of the matrix must be visibly down-weighted.
	var clean, lossy float64
	var nc, nl int
	for _, r := range par.Profile.Runs {
		if r.FaultPlan == "" {
			clean += r.Weight
			nc++
		} else {
			lossy += r.Weight
			nl++
		}
	}
	if nc != 4 || nl != 4 {
		t.Fatalf("run split = %d clean / %d lossy", nc, nl)
	}
	if lossy/4 >= clean/4 {
		t.Errorf("mean lossy weight %.3f not below clean %.3f", lossy/4, clean/4)
	}
}

func TestCampaignObsAndCallbacks(t *testing.T) {
	m := testMatrix()
	reg := obs.New()
	tr := obs.NewTracer()
	var mu sync.Mutex
	streamed := map[string]uint64{}
	res, err := Run(context.Background(), m, Options{
		Workers: 4, Obs: reg, Tracer: tr,
		OnReport: func(c Cell, r *profiling.RunReport) {
			mu.Lock()
			streamed[c.ID] = r.Cycles
			mu.Unlock()
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(streamed) != res.Completed {
		t.Errorf("OnReport saw %d reports, completed %d", len(streamed), res.Completed)
	}
	if got := reg.Counter("campaign_sessions_done").Value(); got != 8 {
		t.Errorf("campaign_sessions_done = %d", got)
	}
	if got := reg.Counter("campaign_cells_total").Value(); got != 8 {
		t.Errorf("campaign_cells_total = %d", got)
	}
	if reg.Gauge("campaign_sessions_per_sec").Value() <= 0 {
		t.Error("sessions/sec gauge never set")
	}
	if reg.Gauge("campaign_sim_cycles_per_sec").Value() <= 0 {
		t.Error("sim cycles/sec gauge never set")
	}
	util := reg.Gauge("campaign_worker00_util").Value()
	if util <= 0 || util > 1 {
		t.Errorf("worker 0 utilization = %v", util)
	}
	var names []string
	for _, ev := range tr.Trace().TraceEvents {
		names = append(names, ev.Name)
	}
	joined := strings.Join(names, " ")
	for _, want := range []string{"expand", "execute", "aggregate", "cell:"} {
		if !strings.Contains(joined, want) {
			t.Errorf("trace lacks %q span (have %v)", want, names)
		}
	}
}

// TestCampaignCancellation cancels after the first completed session:
// the campaign must stop early and still flush the partial aggregate.
func TestCampaignCancellation(t *testing.T) {
	m := testMatrix()
	m.Cycles = 200_000
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	res, err := Run(ctx, m, Options{
		Workers:  2,
		OnReport: func(Cell, *profiling.RunReport) { cancel() },
	})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Canceled {
		t.Fatal("result not marked canceled")
	}
	if res.Completed == 0 || res.Completed >= res.Cells {
		t.Fatalf("completed %d of %d — cancellation had no effect", res.Completed, res.Cells)
	}
	if res.Failed != 0 {
		t.Fatalf("canceled cells were misclassified as failures: %v", res.Errors)
	}
	if res.Profile == nil || len(res.Profile.Runs) != res.Completed {
		t.Fatalf("partial aggregate missing or inconsistent: %+v", res.Profile)
	}
}

func TestCampaignZeroCompleted(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	res, err := Run(ctx, testMatrix(), Options{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Canceled || res.Completed != 0 || res.Profile != nil {
		t.Fatalf("pre-canceled campaign = %+v", res)
	}
}
