package profiling

import (
	"bytes"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"testing"

	"repro/internal/obs"
	"repro/internal/soc"
)

var updateGolden = flag.Bool("update", false, "rewrite golden files")

// fixedReport returns a fully deterministic report (no wall-clock metrics)
// for golden-file comparison.
func fixedReport() *RunReport {
	return &RunReport{
		Schema:     ReportSchemaVersion,
		App:        "golden",
		SoC:        "TC1797",
		Seed:       7,
		Cycles:     100_000,
		Instr:      65_000,
		Resolution: 500,
		Framed:     true,
		FaultPlan:  "noisy-link",
		Confidence: 0.875,
		Loss: LossStats{
			MsgsLost: 3, MsgsDelivered: 700, LinkLost: 100,
			Gaps: 2, TraceBytes: 4096,
		},
		Ring: RingStats{Capacity: 393216, Peak: 2048, Overflows: 3},
		Params: map[string]ParamStats{
			"ipc":         {Mean: 0.65, Min: 0.2, Max: 1.1, Windows: 200, Confidence: 0.9},
			"icache_miss": {Mean: 0.04, Min: 0, Max: 0.2, Windows: 200, Confidence: 0.85},
		},
	}
}

// TestRunReportGolden pins the serialized v1 schema byte-for-byte. If this
// fails because the schema changed intentionally, bump ReportSchemaVersion
// and regenerate with: go test ./internal/profiling -run Golden -update
func TestRunReportGolden(t *testing.T) {
	var buf bytes.Buffer
	if err := fixedReport().WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	golden := filepath.Join("testdata", "runreport_v1.golden.json")
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("%v (run with -update to create)", err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Errorf("run report drifted from golden schema v%d.\nGot:\n%s\nWant:\n%s\n"+
			"If intentional: bump ReportSchemaVersion and regenerate with -update.",
			ReportSchemaVersion, buf.Bytes(), want)
	}
}

// jsonKeys collects the JSON field names of a struct type, recursing into
// embedded report structs, as "prefix.key" paths.
func jsonKeys(t reflect.Type, prefix string, out *[]string) {
	for i := 0; i < t.NumField(); i++ {
		f := t.Field(i)
		tag := strings.Split(f.Tag.Get("json"), ",")[0]
		if tag == "" || tag == "-" {
			continue
		}
		path := prefix + tag
		*out = append(*out, path)
		ft := f.Type
		for ft.Kind() == reflect.Pointer || ft.Kind() == reflect.Map || ft.Kind() == reflect.Slice {
			ft = ft.Elem()
		}
		if ft.Kind() == reflect.Struct && ft.PkgPath() == t.PkgPath() {
			jsonKeys(ft, path+".", out)
		}
	}
}

// TestReportSchemaVersionBump is the schema-change canary: the exact field
// set of schema v1 is pinned here. Adding, removing or renaming any JSON
// field of the run report must come with a ReportSchemaVersion bump AND an
// update of this list (plus the golden file).
func TestReportSchemaVersionBump(t *testing.T) {
	if ReportSchemaVersion != 1 {
		t.Fatalf("ReportSchemaVersion = %d: update the pinned key list and golden file "+
			"for the new schema, then adjust this test", ReportSchemaVersion)
	}
	var keys []string
	jsonKeys(reflect.TypeOf(RunReport{}), "", &keys)
	sort.Strings(keys)
	want := []string{
		"app",
		"confidence",
		"cycles",
		"fault_plan",
		"framed",
		"instructions",
		"loss",
		"loss.gaps",
		"loss.link_lost",
		"loss.msgs_delivered",
		"loss.msgs_lost",
		"loss.trace_bytes",
		"metrics",
		"params",
		"params.confidence",
		"params.max",
		"params.mean",
		"params.min",
		"params.windows",
		"resolution",
		"ring",
		"ring.capacity",
		"ring.overflows",
		"ring.peak",
		"schema_version",
		"seed",
		"soc",
	}
	if !reflect.DeepEqual(keys, want) {
		t.Errorf("run-report JSON field set changed:\ngot  %v\nwant %v\n"+
			"Changing the schema requires bumping ReportSchemaVersion.", keys, want)
	}
}

func TestReadRunReportVersionChecks(t *testing.T) {
	if _, err := ReadRunReport(strings.NewReader(`{"app":"x"}`)); err == nil {
		t.Error("report without schema_version must be rejected")
	}
	if _, err := ReadRunReport(strings.NewReader(`{"schema_version":999}`)); err == nil {
		t.Error("newer schema must be rejected")
	}
	if _, err := ReadRunReport(strings.NewReader(`not json`)); err == nil {
		t.Error("garbage must be rejected")
	}
	r, err := ReadRunReport(strings.NewReader(`{"schema_version":1,"app":"ok","seed":3}`))
	if err != nil {
		t.Fatal(err)
	}
	if r.App != "ok" || r.Seed != 3 {
		t.Errorf("parsed report = %+v", r)
	}
}

// TestSessionRunReport exercises the full pipeline: session → profile →
// report → JSON round trip, with observability and spans enabled. The
// metrics stay on the registry: the report carries no host cost.
func TestSessionRunReport(t *testing.T) {
	reg := obs.New()
	tr := obs.NewTracer()
	s, app := buildApp(t, soc.TC1797().WithED(), stdSpec())
	sess := NewSession(s, Spec{
		Resolution: 500, Params: StandardParams(), DAP: true,
		Obs: reg, Tracer: tr,
	})
	mustRun(t, sess, app, 300_000)
	p, err := sess.Result("app")
	if err != nil {
		t.Fatal(err)
	}
	r := sess.RunReport(p, stdSpec().Seed)

	if r.Schema != ReportSchemaVersion {
		t.Errorf("schema = %d", r.Schema)
	}
	if r.SoC != "TC1797ED" || r.Seed != 3 || r.Cycles == 0 {
		t.Errorf("meta = %+v", r)
	}
	if r.Confidence != 1 {
		t.Errorf("clean run confidence = %v, want 1", r.Confidence)
	}
	if ps, ok := r.Params["ipc"]; !ok || ps.Mean <= 0 || ps.Windows == 0 {
		t.Errorf("ipc stats = %+v", r.Params["ipc"])
	}
	if r.Ring.Peak == 0 || r.Ring.Capacity == 0 {
		t.Errorf("ring stats empty: %+v", r.Ring)
	}
	if r.Metrics != nil {
		t.Error("run report embeds the session's metrics snapshot")
	}
	snap := reg.Snapshot()
	if v, ok := snap.Counter("sim.cycles"); !ok || v < 300_000 {
		t.Errorf("sim.cycles metric = %d,%v", v, ok)
	}
	if v, ok := snap.Counter("mcds.msgs_emitted"); !ok || v == 0 {
		t.Errorf("mcds.msgs_emitted = %d,%v", v, ok)
	}
	if v, ok := snap.Counter("dap.bytes_drained"); !ok || v == 0 {
		t.Errorf("dap.bytes_drained = %d,%v", v, ok)
	}
	if v, ok := snap.Gauge("emem.ring.peak"); !ok || v == 0 {
		t.Errorf("emem.ring.peak = %v,%v", v, ok)
	}

	// The pipeline spans are all present, in order.
	var names []string
	for _, ev := range tr.Trace().TraceEvents {
		names = append(names, ev.Name)
	}
	want := []string{"run", "drain", "decode", "assemble"}
	if !reflect.DeepEqual(names, want) {
		t.Errorf("spans = %v, want %v", names, want)
	}

	// JSON round trip through the reader used by tcfleet.
	var buf bytes.Buffer
	if err := r.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := ReadRunReport(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if back.Cycles != r.Cycles || len(back.Params) != len(r.Params) {
		t.Errorf("round trip lost data: %+v", back)
	}
}

// TestRunReportDeterministic: two identical runs must serialize to
// identical report bytes.
func TestRunReportDeterministic(t *testing.T) {
	gen := func() []byte {
		s, app := buildApp(t, soc.TC1767().WithED(), stdSpec())
		sess := NewSession(s, Spec{Resolution: 1000, Params: StandardParams()})
		mustRun(t, sess, app, 200_000)
		p, err := sess.Result("app")
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := sess.RunReport(p, stdSpec().Seed).WriteJSON(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	a, b := gen(), gen()
	if !bytes.Equal(a, b) {
		t.Error("identical runs produced different reports")
	}
	var v map[string]any
	if err := json.Unmarshal(a, &v); err != nil {
		t.Fatal(err)
	}
}
