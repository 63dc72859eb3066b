package profiling

import (
	"fmt"
	"go/parser"
	"go/token"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"testing"

	"repro/internal/fault"
	"repro/internal/obs"
	"repro/internal/soc"
	"repro/internal/workload"
)

// TestSessionPublishesTraceMetrics runs a framed, lossy session (the
// everything fault scenario at resolution 100) with a registry and checks
// the session's metric table against the components' plain statistics:
// after every Run chunk and after Result, each of the 32 trace-path names
// reads its source minus the source's value at session creation (the
// decoder has counted the program load by then); the name set is
// complete; the flat isa_block_* names pass through Prometheus exposition
// unfolded; the run report's ring and loss fields equal their metrics,
// with no snapshot embedded; and a session without a registry publishes
// nothing.
func TestSessionPublishesTraceMetrics(t *testing.T) {
	spec, _ := workload.Mix("engine", 1)
	s := soc.New(soc.TC1797().WithED(), 1)
	app, err := workload.Build(s, spec)
	if err != nil {
		t.Fatal(err)
	}
	plan, err := fault.Parse("everything", 1)
	if err != nil {
		t.Fatal(err)
	}
	reg := obs.New()
	base := s.Decoder.Stats()
	if base.Invalidations == 0 {
		t.Fatal("the program load left no decoder invalidation: the baseline goes unchecked")
	}
	sess := NewSession(s, Spec{Resolution: 100, Params: StandardParams(), DAP: true, Fault: &plan, Obs: reg})

	// want lists every published name with its expected value: a counter's
	// source minus its creation baseline (zero but for the decoder), a
	// gauge's source.
	want := func() map[string]float64 {
		e, m, d, st := s.EMEM, sess.MCDS, sess.DAP, s.Decoder.Stats()
		w := map[string]float64{
			"emem.ring.level":         float64(e.Level()),
			"emem.ring.peak":          float64(e.PeakLevel),
			"emem.ring.overflows":     float64(e.MsgsDropped),
			"emem.ring.msgs_written":  float64(e.MsgsWritten),
			"emem.ring.bytes_written": float64(e.BytesWritten),
			"emem.ring.bytes_drained": float64(e.BytesDrained),
			"emem.soft_errors":        float64(e.SoftErrors),
			"isa_block_hits":          float64(st.Hits - base.Hits),
			"isa_block_misses":        float64(st.Misses - base.Misses),
			"isa_block_evictions":     float64(st.Evictions - base.Evictions),
			"isa_block_invalidations": float64(st.Invalidations - base.Invalidations),
			"isa_block_chain_links":   float64(st.ChainLinks - base.ChainLinks),
			"isa_block_chain_severs":  float64(st.ChainSevers - base.ChainSevers),
			"mcds.msgs_emitted":       float64(m.MsgsEmitted),
			"mcds.bytes_emitted":      float64(m.BytesEmitted),
			"mcds.msgs_lost":          float64(m.MsgsLost),
			"mcds.reanchors":          float64(m.Reanchors),
			"dap.bytes_drained":       float64(d.TotalDrained),
			"dap.frames_delivered":    float64(d.FramesDelivered),
			"dap.retries":             float64(d.Retries),
			"dap.frames_abandoned":    float64(d.FramesAbandoned),
			"dap.garbage_bytes":       float64(d.GarbageBytes),
			"dap.backoff_cycles":      float64(d.BackoffCycles),
			"dap.link_down_cycles":    float64(d.LinkDownCycles()),
		}
		for i, n := range m.SrcMsgs {
			w[fmt.Sprintf("mcds.src%d.msgs", i)] = float64(n)
		}
		return w
	}
	published := func() map[string]float64 {
		snap := reg.Snapshot()
		got := map[string]float64{}
		for _, c := range snap.Counters {
			got[c.Name] = float64(c.Value)
		}
		for _, g := range snap.Gauges {
			got[g.Name] = g.Value
		}
		return got
	}
	check := func(when string) {
		t.Helper()
		got := published()
		w := want()
		if len(w) != 32 {
			t.Fatalf("%d expected names, want 32", len(w))
		}
		var extra []string
		for name := range got {
			if _, ok := w[name]; !ok && !strings.HasPrefix(name, "sim.") {
				extra = append(extra, name)
			}
		}
		sort.Strings(extra)
		if len(extra) > 0 {
			t.Errorf("%s: unexpected metrics %v", when, extra)
		}
		for name, v := range w {
			if g, ok := got[name]; !ok || g != v {
				t.Errorf("%s: %s = %v (present %v), want %v", when, name, g, ok, v)
			}
		}
	}

	check("at creation")
	mustRun(t, sess, app, 300_000)
	check("after Run")
	prof, err := sess.Result(spec.Name)
	if err != nil {
		t.Fatal(err)
	}
	check("after Result")

	// The run report and the registry are two views of one run: the
	// report's ring and loss fields read what the metrics read, and the
	// report embeds none of the registry's host cost.
	r := sess.RunReport(prof, 1)
	if r.Metrics != nil {
		t.Error("run report embeds the session's metrics snapshot")
	}
	got := published()
	for name, v := range map[string]float64{
		"emem.ring.overflows": float64(r.Ring.Overflows),
		"emem.ring.peak":      float64(r.Ring.Peak),
		"mcds.msgs_lost":      float64(r.Loss.MsgsLost),
		"mcds.bytes_emitted":  float64(r.Loss.TraceBytes),
	} {
		if got[name] != v {
			t.Errorf("metric %s = %v, run report says %v", name, got[name], v)
		}
	}
	if got["dap.retries"] == 0 {
		t.Error("dap.retries = 0 under the everything plan")
	}

	// The run must exercise the lossy path, or the equalities above say little.
	m, d := sess.MCDS, sess.DAP
	if m.MsgsLost == 0 || m.Reanchors == 0 || d.Retries == 0 || d.LinkDownCycles() == 0 ||
		s.EMEM.MsgsDropped == 0 || s.EMEM.SoftErrors == 0 || s.Decoder.Stats().Invalidations == base.Invalidations {
		t.Errorf("lossy run left a statistic at zero: mcds %+v, dap retries %d down %d, emem %+v",
			[]uint64{m.MsgsLost, m.Reanchors}, d.Retries, d.LinkDownCycles(),
			[]uint64{s.EMEM.MsgsDropped, s.EMEM.SoftErrors})
	}
	var bySrc uint64
	for _, n := range m.SrcMsgs {
		bySrc += n
	}
	if bySrc != m.MsgsEmitted {
		t.Errorf("per-source messages sum to %d, emitted %d", bySrc, m.MsgsEmitted)
	}

	var b strings.Builder
	if err := reg.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	prom := b.String()
	for _, name := range []string{"isa_block_hits", "isa_block_misses", "isa_block_evictions",
		"isa_block_invalidations", "isa_block_chain_links", "isa_block_chain_severs"} {
		if !strings.Contains(prom, "\n"+name+" ") {
			t.Errorf("Prometheus exposition lacks flat metric %q", name)
		}
		if strings.Contains(prom, name+"{") {
			t.Errorf("flat decoder metric %q was label-folded", name)
		}
	}

	bare := NewSession(soc.New(soc.TC1797().WithED(), 1), Spec{Resolution: 100, Params: StandardParams(), DAP: true})
	if bare.metrics != nil {
		t.Errorf("a session without a registry holds %d metrics", len(bare.metrics))
	}
}

// TestTracePathImportsNoObs guards the layering: the trace-path
// components keep plain statistics and the session alone publishes them,
// so no non-test file of theirs imports the metrics registry.
func TestTracePathImportsNoObs(t *testing.T) {
	for _, pkg := range []string{"emem", "dap", "mcds", "isa"} {
		files, err := filepath.Glob(filepath.Join("..", pkg, "*.go"))
		if err != nil || len(files) == 0 {
			t.Fatalf("package %s: no Go files (%v)", pkg, err)
		}
		for _, path := range files {
			if strings.HasSuffix(path, "_test.go") {
				continue
			}
			f, err := parser.ParseFile(token.NewFileSet(), path, nil, parser.ImportsOnly)
			if err != nil {
				t.Fatal(err)
			}
			for _, imp := range f.Imports {
				if p, _ := strconv.Unquote(imp.Path.Value); p == "repro/internal/obs" {
					t.Errorf("%s imports %s", path, p)
				}
			}
		}
	}
}
