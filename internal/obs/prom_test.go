package obs

import (
	"net/http/httptest"
	"regexp"
	"strings"
	"testing"
)

// promLine matches one sample line of the text exposition format 0.0.4:
// name{labels} value.
var promLine = regexp.MustCompile(
	`^[a-zA-Z_:][a-zA-Z0-9_:]*(\{[a-zA-Z_][a-zA-Z0-9_]*="[^"]*"(,[a-zA-Z_][a-zA-Z0-9_]*="[^"]*")*\})? (-?[0-9.eE+-]+|\+Inf|-Inf|NaN)$`)

// TestPrometheusFormat validates the exposition structurally: every
// line is either a well-formed # TYPE comment or a well-formed sample,
// every family is announced before its samples, and the dimensional
// naming convention folds into labels.
func TestPrometheusFormat(t *testing.T) {
	r := New()
	r.Counter("campaign_sessions_done").Add(7)
	r.Counter("campaign_shard_restarts").Add(2)
	r.Gauge("campaign_shard00_alive").Set(1)
	r.Gauge("campaign_shard01_alive").Set(0)
	r.Gauge("campaign_shard11_hb_age_sec").Set(0.25)
	r.Gauge("campaign_worker03_util").Set(0.5)

	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()

	typed := map[string]string{}
	for _, line := range strings.Split(strings.TrimRight(out, "\n"), "\n") {
		if strings.HasPrefix(line, "# TYPE ") {
			f := strings.Fields(line)
			if len(f) != 4 {
				t.Errorf("malformed TYPE line: %q", line)
				continue
			}
			typed[f[2]] = f[3]
			continue
		}
		if !promLine.MatchString(line) {
			t.Errorf("line does not match the exposition grammar: %q", line)
			continue
		}
		name := line[:strings.IndexAny(line, "{ ")]
		if _, ok := typed[name]; !ok {
			t.Errorf("sample %q precedes (or lacks) its # TYPE line", name)
		}
	}

	// Dimensional folding: the per-shard gauges collapse into one family
	// with a shard label, and the ordinal loses its zero padding.
	for _, want := range []string{
		"# TYPE campaign_shard_alive gauge",
		`campaign_shard_alive{shard="0"} 1`,
		`campaign_shard_alive{shard="1"} 0`,
		`campaign_shard_hb_age_sec{shard="11"} 0.25`,
		`campaign_worker_util{worker="3"} 0.5`,
		"campaign_sessions_done 7",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q:\n%s", want, out)
		}
	}
	if strings.Contains(out, "shard00") || strings.Contains(out, "shard01") {
		t.Errorf("exposition leaks unfolded ordinals:\n%s", out)
	}
}

// TestPrometheusDeterministic: identical registry state must serialize
// identically (the exposition inherits Snapshot's ordering).
func TestPrometheusDeterministic(t *testing.T) {
	build := func() *Registry {
		r := New()
		r.Counter("b_total").Add(1)
		r.Counter("a_total").Add(2)
		r.Gauge("campaign_shard03_alive").Set(1)
		return r
	}
	var x, y strings.Builder
	if err := build().WritePrometheus(&x); err != nil {
		t.Fatal(err)
	}
	if err := build().WritePrometheus(&y); err != nil {
		t.Fatal(err)
	}
	if x.String() != y.String() {
		t.Errorf("exposition not deterministic:\n%s\nvs\n%s", x.String(), y.String())
	}
}

// TestPrometheusNilRegistry: the disabled registry writes nothing and
// its handler still serves a valid (empty) exposition.
func TestPrometheusNilRegistry(t *testing.T) {
	var b strings.Builder
	if err := Disabled.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	if b.Len() != 0 {
		t.Errorf("nil registry wrote %q", b.String())
	}
	rec := httptest.NewRecorder()
	Disabled.PromHandler().ServeHTTP(rec, httptest.NewRequest("GET", "/metrics/prom", nil))
	if rec.Code != 200 {
		t.Errorf("nil registry handler status %d", rec.Code)
	}
}

// TestPromHandler serves the live registry with the 0.0.4 content type.
func TestPromHandler(t *testing.T) {
	r := New()
	r.Counter("x_total").Inc()
	rec := httptest.NewRecorder()
	r.PromHandler().ServeHTTP(rec, httptest.NewRequest("GET", "/metrics/prom", nil))
	if rec.Code != 200 {
		t.Fatalf("status %d", rec.Code)
	}
	if ct := rec.Header().Get("Content-Type"); !strings.Contains(ct, "version=0.0.4") {
		t.Errorf("content type %q lacks exposition version", ct)
	}
	if !strings.Contains(rec.Body.String(), "x_total 1") {
		t.Errorf("body missing sample:\n%s", rec.Body.String())
	}
}

// TestSplitDims pins the name-folding convention.
func TestSplitDims(t *testing.T) {
	for _, tc := range []struct {
		in, base, labels string
	}{
		{"campaign_shard00_alive", "campaign_shard_alive", `{shard="0"}`},
		{"campaign_shard12_cells_done", "campaign_shard_cells_done", `{shard="12"}`},
		{"campaign_worker03_util", "campaign_worker_util", `{worker="3"}`},
		{"campaign_sessions_done", "campaign_sessions_done", ""},
		{"shard_restarts", "shard_restarts", ""}, // no ordinal, no label
	} {
		base, labels := splitDims(tc.in)
		if base != tc.base || labels != tc.labels {
			t.Errorf("splitDims(%q) = (%q, %q), want (%q, %q)", tc.in, base, labels, tc.base, tc.labels)
		}
	}
}
