package main

import (
	"encoding/json"
	"fmt"
	"math"
	"regexp"
	"sort"
)

// metric is one reported figure. End-to-end metrics carry the regression
// bound a later change may not exceed; per-layer metrics instead name the
// end-to-end metric (and workload) they are expected to move.
type metric struct {
	Name   string
	Unit   string
	Better string  // "higher" or "lower"
	Bound  float64 // end-to-end only: tolerated worsening, as a share of the parent's median
	Moves  string  // per-layer only: which end-to-end metric on which workload it explains
}

// endToEnd are the figures a user of the simulator sees, printed by every
// untraced run. ok_frac stands in for a failure fraction: the benchmark's
// metrics must never read 0, and failed/attempted are printed alongside.
// The bounds are wide because the shared 2-CPU host this was tuned on
// drifts in speed by 10-30 % from minute to minute, which no amount of
// work within one run averages out.
var endToEnd = []metric{
	{Name: "simcycles_per_s", Unit: "1/s", Better: "higher", Bound: 0.25},
	{Name: "ops_per_s", Unit: "1/s", Better: "higher", Bound: 0.25},
	{Name: "op_p50_ms", Unit: "ms", Better: "lower", Bound: 0.25},
	{Name: "op_tail_ms", Unit: "ms", Better: "lower", Bound: 0.25},
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25},
	{Name: "peak_rss_mb", Unit: "MB", Better: "lower", Bound: 0.25},
	{Name: "ok_frac", Unit: "frac", Better: "higher", Bound: 0.001},
}

// perLayer are the figures of the traced run. Timings come from outside
// spans around public calls and from the spans and metrics the program
// already publishes; counts describe simulated work and must repeat
// exactly. A metric a workload does not exercise reads 0.
var perLayer = []metric{
	{Name: "soc.new_ms", Unit: "ms", Better: "lower", Moves: "setup_s (all)"},
	{Name: "workload.build_ms", Unit: "ms", Better: "lower", Moves: "setup_s (all)"},
	{Name: "profiling.new_session_ms", Unit: "ms", Better: "lower", Moves: "setup_s (all)"},
	{Name: "profiling.run_ns_per_simcycle", Unit: "ns", Better: "lower", Moves: "simcycles_per_s, op_p50_ms (session, lossy)"},
	{Name: "profiling.result_ms", Unit: "ms", Better: "lower", Moves: "op_p50_ms (lossy, not session)"},
	{Name: "profiling.drain_ms", Unit: "ms", Better: "lower", Moves: "op_p50_ms (lossy)"},
	{Name: "profiling.decode_ms", Unit: "ms", Better: "lower", Moves: "op_p50_ms (lossy)"},
	{Name: "profiling.assemble_ms", Unit: "ms", Better: "lower", Moves: "op_p50_ms (lossy)"},
	{Name: "profiling.report_ms", Unit: "ms", Better: "lower", Moves: "op_p50_ms (lossy)"},
	{Name: "profiling.result_share", Unit: "frac", Better: "lower", Moves: "op_p50_ms (lossy)"},
	{Name: "soc.bare_ns_per_simcycle", Unit: "ns", Better: "lower", Moves: "simcycles_per_s (resim)"},
	{Name: "mcds.path_ns_per_simcycle", Unit: "ns", Better: "lower", Moves: "simcycles_per_s (session)"},
	{Name: "sim.ticker.cpu.share", Unit: "frac", Better: "lower", Moves: "simcycles_per_s (resim)"},
	{Name: "sim.ticker.pcp.share", Unit: "frac", Better: "lower", Moves: "simcycles_per_s (session)"},
	{Name: "sim.ticker.dma.share", Unit: "frac", Better: "lower", Moves: "simcycles_per_s (session)"},
	{Name: "sim.ticker.mcds.share", Unit: "frac", Better: "lower", Moves: "simcycles_per_s (session)"},
	{Name: "sim.ticker.dap.share", Unit: "frac", Better: "lower", Moves: "simcycles_per_s (lossy)"},
	{Name: "sim.ticker.fault.share", Unit: "frac", Better: "lower", Moves: "simcycles_per_s (lossy)"},
	{Name: "sim.ticker.degrade.share", Unit: "frac", Better: "lower", Moves: "simcycles_per_s (none: no workload degrades)"},
	{Name: "sim.ticker.periph.share", Unit: "frac", Better: "lower", Moves: "simcycles_per_s (all but fleet)"},
	{Name: "core.profile_app_ms", Unit: "ms", Better: "lower", Moves: "op_p50_ms (resim)"},
	{Name: "core.measure_cycles_ms", Unit: "ms", Better: "lower", Moves: "op_p50_ms (resim)"},
	{Name: "core.measure_cycles_share", Unit: "frac", Better: "lower", Moves: "op_p50_ms (resim)"},
	{Name: "campaign.expand_ms", Unit: "ms", Better: "lower", Moves: "ops_per_s (fleet)"},
	{Name: "campaign.journal_ms", Unit: "ms", Better: "lower", Moves: "ops_per_s (fleet)"},
	{Name: "campaign.execute_ms", Unit: "ms", Better: "lower", Moves: "ops_per_s (fleet)"},
	{Name: "campaign.aggregate_ms", Unit: "ms", Better: "lower", Moves: "ops_per_s (fleet)"},
	{Name: "campaign.worker_util", Unit: "frac", Better: "higher", Moves: "ops_per_s (fleet)"},
	{Name: "runtime.alloc_bytes_per_simcycle", Unit: "B", Better: "lower", Moves: "peak_rss_mb, simcycles_per_s (all)"},
	{Name: "runtime.gc_cpu_frac", Unit: "frac", Better: "lower", Moves: "peak_rss_mb, simcycles_per_s (all)"},
	{Name: "trace.overhead_frac", Unit: "frac", Better: "lower", Moves: "none: cost of the traced run itself"},

	{Name: "tricore.instr_retired", Unit: "count", Better: "higher", Moves: "exact count"},
	{Name: "tricore.stall_cycles", Unit: "count", Better: "lower", Moves: "exact count"},
	{Name: "tricore.ipc", Unit: "ratio", Better: "higher", Moves: "exact count"},
	{Name: "isa.block_hit_ratio", Unit: "ratio", Better: "higher", Moves: "exact count"},
	{Name: "isa.block_evictions", Unit: "count", Better: "lower", Moves: "exact count"},
	{Name: "cache.icache_hit_ratio", Unit: "ratio", Better: "higher", Moves: "exact count"},
	{Name: "cache.dcache_hit_ratio", Unit: "ratio", Better: "higher", Moves: "exact count"},
	{Name: "flash.reads", Unit: "count", Better: "lower", Moves: "exact count"},
	{Name: "mcds.msgs_emitted", Unit: "count", Better: "lower", Moves: "exact count"},
	{Name: "mcds.bytes_emitted", Unit: "B", Better: "lower", Moves: "exact count"},
	{Name: "mcds.msgs_lost", Unit: "count", Better: "lower", Moves: "exact count"},
	{Name: "emem.peak_bytes", Unit: "B", Better: "lower", Moves: "exact count"},
	{Name: "emem.msgs_dropped", Unit: "count", Better: "lower", Moves: "exact count"},
	{Name: "dap.frames_delivered", Unit: "count", Better: "higher", Moves: "exact count"},
	{Name: "dap.retries", Unit: "count", Better: "lower", Moves: "exact count"},
	{Name: "dap.frames_abandoned", Unit: "count", Better: "lower", Moves: "exact count"},
	{Name: "dap.garbage_bytes", Unit: "B", Better: "lower", Moves: "exact count"},
	{Name: "tmsg.delivered_ratio", Unit: "ratio", Better: "higher", Moves: "exact count"},
	{Name: "tmsg.gaps", Unit: "count", Better: "lower", Moves: "exact count"},
	{Name: "campaign.retries", Unit: "count", Better: "lower", Moves: "exact count"},
	{Name: "core.resims", Unit: "count", Better: "lower", Moves: "exact count"},
	{Name: "core.resim_simcycles", Unit: "count", Better: "lower", Moves: "exact count"},
}

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

// checkMetrics validates a metric table against the manifest grammar:
// names and units from the allowed alphabets, a known better-direction,
// bounds within (0, 0.25] on end-to-end metrics, and no name used twice.
func checkMetrics(ms []metric, e2e bool) error {
	seen := map[string]bool{}
	for _, m := range ms {
		switch {
		case !nameRE.MatchString(m.Name):
			return fmt.Errorf("metric %q: bad name", m.Name)
		case !unitRE.MatchString(m.Unit):
			return fmt.Errorf("metric %s: bad unit %q", m.Name, m.Unit)
		case m.Better != "higher" && m.Better != "lower":
			return fmt.Errorf("metric %s: better must be higher or lower", m.Name)
		case seen[m.Name]:
			return fmt.Errorf("metric %s: duplicate name", m.Name)
		case e2e && (m.Bound <= 0 || m.Bound > 0.25):
			return fmt.Errorf("metric %s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		case !e2e && m.Bound != 0:
			return fmt.Errorf("metric %s: per-layer metrics carry no bound", m.Name)
		}
		seen[m.Name] = true
	}
	return nil
}

// runSeconds is how long one run measures; the driver passes it back as
// --seconds.
const runSeconds = 20

// manifest renders BENCHMARK.json from the workload and metric tables, so
// the file cannot drift from what the program measures.
func manifest() ([]byte, error) {
	type wl struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	}
	type e2eM struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	}
	type layerM struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	}
	doc := struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []wl     `json:"workloads"`
		EndToEnd   []e2eM   `json:"end_to_end"`
		PerLayer   []layerM `json:"per_layer"`
	}{
		Command:    []string{"bash", "perfbench/run.sh"},
		Paths:      []string{"perfbench"},
		RunSeconds: runSeconds,
	}
	for _, w := range workloads {
		doc.Workloads = append(doc.Workloads, wl{w.name, w.why()})
	}
	for _, m := range endToEnd {
		doc.EndToEnd = append(doc.EndToEnd, e2eM{m.Name, m.Unit, m.Better, m.Bound})
	}
	for _, m := range perLayer {
		doc.PerLayer = append(doc.PerLayer, layerM{m.Name, m.Unit, m.Better})
	}
	b, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(b, '\n'), nil
}

// tailLadder is the set of percentiles a tail latency may be reported at.
var tailLadder = []float64{50, 75, 80, 90, 95, 99, 99.9}

// tailPercentile returns the highest ladder percentile that leaves at
// least ten of n ops beyond it (0 when even the median does not).
func tailPercentile(n int) float64 {
	best := 0.0
	for _, p := range tailLadder {
		if float64(n)*(1-p/100) >= 10-1e-9 {
			best = p
		}
	}
	return best
}

// percentile returns the p-th percentile of xs by linear interpolation
// between closest ranks (xs need not be sorted; it is not modified).
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	r := p / 100 * float64(len(s)-1)
	lo := int(math.Floor(r))
	hi := int(math.Ceil(r))
	return s[lo] + (s[hi]-s[lo])*(r-float64(lo))
}

func median(xs []float64) float64 { return percentile(xs, 50) }

func sum(xs []float64) float64 {
	var t float64
	for _, x := range xs {
		t += x
	}
	return t
}
