// Command perfbench is the repository's end-to-end benchmark: it times the
// product path of the simulator (profiling sessions, lossy sessions, the
// F-model's Evaluate, and in-process campaigns) by calling the public
// functions of each layer from outside, checks every output against
// golden digests and per-op invariants, and prints one JSON result line.
//
// Usage, from the repository root:
//
//	bash perfbench/run.sh --workload session --seed 1 --seconds 20 --trace 0
//
// See README.md in this directory for the workloads and metrics.
package main

import (
	_ "embed"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime/debug"
	"runtime/metrics"
	"strconv"
	"strings"
	"time"

	"repro/internal/obs"
)

//go:embed goldens.json
var goldensJSON []byte

// goldens are the output digests of one round of every workload at the
// default seed, at the full and the smoke size. HeldoutSeed is a second
// seed kept out of development, for checking later claims on.
type goldens struct {
	DefaultSeed uint64                       `json:"default_seed"`
	HeldoutSeed uint64                       `json:"heldout_seed"`
	Digests     map[string]map[string]string `json:"digests"` // "workload/size" → "key/output" → sha256
}

func loadGoldens() (goldens, error) {
	var g goldens
	if err := json.Unmarshal(goldensJSON, &g); err != nil {
		return g, fmt.Errorf("goldens.json: %w", err)
	}
	return g, nil
}

// hardCap stops a run that is far slower than expected well before the
// 180-second limit, even if it has not completed minOps ops.
const hardCap = 120 * time.Second

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	gold, err := loadGoldens()
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 2
	}
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	wname := fs.String("workload", "", "workload to run: session, lossy, resim or fleet")
	seed := fs.Uint64("seed", gold.DefaultSeed, "workload seed; op inputs derive from it")
	seconds := fs.Float64("seconds", runSeconds, "how long to measure")
	trace := fs.Int("trace", 0, "1 runs the traced per-layer run instead of the end-to-end one")
	out := fs.String("out", ".bench_build", "directory for campaign journals and the Chrome trace")
	manifestPath := fs.String("manifest", "", "write the benchmark manifest (BENCHMARK.json) to this file and exit")
	regen := fs.String("regen", "", "recompute the default-seed golden digests into this file and exit")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	switch {
	case *manifestPath != "":
		b, err := manifest()
		if err == nil {
			err = os.WriteFile(*manifestPath, b, 0o644)
		}
		if err != nil {
			fmt.Fprintln(stderr, "perfbench:", err)
			return 1
		}
		return 0
	case *regen != "":
		if err := regenerate(gold, *regen, *out); err != nil {
			fmt.Fprintln(stderr, "perfbench:", err)
			return 1
		}
		return 0
	}
	w := findWorkload(*wname)
	if w == nil || (*trace != 0 && *trace != 1) || *seconds <= 0 {
		fmt.Fprintf(stderr, "perfbench: need --workload (session|lossy|resim|fleet), --seconds > 0 and --trace 0|1\n")
		return 2
	}
	if err := os.MkdirAll(*out, 0o755); err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	tmp, err := os.MkdirTemp(*out, "run-")
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	defer os.RemoveAll(tmp)

	var want map[string]string
	if *seed == gold.DefaultSeed {
		want = gold.Digests[w.name+"/full"]
	}
	b := newBench(w, w.full, *seed, tmp, want)
	dur := time.Duration(*seconds * float64(time.Second))
	var res map[string]float64
	var table []metric
	if *trace == 1 {
		tr := obs.NewTracer()
		res = b.traced(dur, tr)
		table = perLayer
		path := filepath.Join(*out, "perfbench-"+w.name+"-trace.json")
		if err := writeTrace(tr, path); err != nil {
			fmt.Fprintln(stderr, "perfbench:", err)
			return 1
		}
		fmt.Fprintf(stdout, "chrome trace: %s\n", path)
	} else {
		res = b.timed(dur)
		table = endToEnd
	}
	for i, f := range b.failures {
		if i == 20 {
			fmt.Fprintf(stderr, "perfbench: ... %d more failures\n", len(b.failures)-i)
			break
		}
		fmt.Fprintln(stderr, "perfbench: FAIL", f)
	}
	printTable(stdout, w, *seed, b, table, res)
	return printResult(stdout, b, table, res)
}

func writeTrace(tr *obs.Tracer, path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := tr.WriteChromeTrace(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// bench runs one workload's ops and checks their outputs.
type bench struct {
	r      *runner
	inputs []input
	// want holds golden digests by "key/output"; nil when the seed has
	// none, and then only repeats are checked against each other.
	want map[string]string
	// seen is the first result of every "key/output": later repeats of
	// the same input must reproduce its digest and exact counts.
	seen      map[string]opResult
	attempted int
	failed    int
	failures  []string
}

func newBench(w *workloadDef, sz size, seed uint64, tmp string, want map[string]string) *bench {
	return &bench{
		r:      &runner{w: w, sz: sz, tmp: tmp, refs: map[string]*resimRef{}},
		inputs: w.inputs(seed),
		want:   want,
		seen:   map[string]opResult{},
	}
}

// fail records one failed op.
func (b *bench) fail(in input, err error) {
	b.failed++
	b.failures = append(b.failures, fmt.Sprintf("%s %s: %v", b.r.w.name, in.Key, err))
}

// do runs and checks one op; ok is false when it failed.
func (b *bench) do(in input, ins instr) (opResult, bool) {
	b.attempted++
	res, err := safely(func() (opResult, error) { return b.r.w.op(b.r, in, ins) })
	if err == nil {
		err = b.check(in, res)
	}
	if err != nil {
		b.fail(in, err)
		return res, false
	}
	return res, true
}

// safely runs fn, reporting a panic as its error: a panicking op is a
// failed op, not a crashed benchmark.
func safely[T any](fn func() (T, error)) (res T, err error) {
	defer func() {
		if p := recover(); p != nil {
			err = fmt.Errorf("panic: %v", p)
		}
	}()
	return fn()
}

func (b *bench) check(in input, res opResult) error {
	k := in.Key + "/" + res.output
	if b.want != nil && b.want[k] != res.digest {
		return fmt.Errorf("%s digest %.12s differs from golden %.12s", k, res.digest, b.want[k])
	}
	prev, ok := b.seen[k]
	if !ok {
		b.seen[k] = res
		return nil
	}
	if prev.digest != res.digest {
		return fmt.Errorf("%s digest %.12s differs from an earlier repeat's %.12s", k, res.digest, prev.digest)
	}
	if prev.counts != nil && res.counts != nil && *prev.counts != *res.counts {
		return fmt.Errorf("%s exact counts differ from an earlier repeat's", k)
	}
	return nil
}

// setupSamples is about how many constructions a run times for setup_s.
const setupSamples = 30

// setupPhase constructs every input's systems reps times and returns the
// wall times in seconds; sw collects the per-call timings. Each
// construction starts with the heap collected and its free memory
// returned to the OS, so none pays for an op's garbage and all start
// from the same state.
func (b *bench) setupPhase(reps int, sw *stopwatch) []float64 {
	var out []float64
	for rep := 0; rep < reps; rep++ {
		for _, in := range b.inputs {
			debug.FreeOSMemory()
			t := time.Now()
			if _, err := safely(func() (struct{}, error) { return struct{}{}, b.r.w.setup(b.r, in, sw) }); err != nil {
				b.attempted++
				b.fail(in, fmt.Errorf("setup: %w", err))
				continue
			}
			out = append(out, time.Since(t).Seconds())
		}
	}
	return out
}

// timed is the end-to-end run: an untimed warm-up of one op per mix,
// the setup phase, then ops in rotation over the inputs until the time is
// up and at least minOps ops ran. The run stops only between balance
// groups, so every mix is equally represented and medians do not depend
// on where the clock stopped.
//
// op_p50_ms is the median over the run's balance groups of each group's
// mean op latency: one op per mix. The latencies of single ops fall in one
// cluster per mix, and their median sat in a gap between clusters, where
// a few percent of host drift moved it by a third; the group means form
// one cluster. Where a group is one op, this is the median op latency.
func (b *bench) timed(dur time.Duration) map[string]float64 {
	w := b.r.w
	for _, in := range b.inputs[:w.balance] {
		b.do(in, instr{})
	}
	setups := b.setupPhase((setupSamples+len(b.inputs)-1)/len(b.inputs), newStopwatch(nil))
	var lat, groups []float64
	var groupSum float64
	var groupOps int
	var simCycles uint64
	var busy time.Duration
	var peakRSS float64
	start := time.Now()
	for i := 0; ; i++ {
		if i%w.balance == 0 {
			if groupOps > 0 {
				groups = append(groups, groupSum/float64(groupOps))
			}
			groupSum, groupOps = 0, 0
			el := time.Since(start)
			if el >= hardCap || (el >= dur && i >= w.minOps) {
				break
			}
		}
		// Every op starts from a collected heap with its free pages
		// returned to the OS, so the resident set sampled after it is that
		// op's own footprint rather than depending on when the GC last ran.
		debug.FreeOSMemory()
		res, ok := b.do(b.inputs[i%len(b.inputs)], instr{})
		peakRSS = max(peakRSS, residentMB())
		if !ok {
			continue
		}
		lat = append(lat, float64(res.latency)/1e6)
		groupSum += float64(res.latency) / 1e6
		groupOps++
		simCycles += res.simCycles
		busy += res.latency
	}
	m := map[string]float64{
		"peak_rss_mb": peakRSS,
		"ok_frac":     1 - float64(b.failed)/float64(b.attempted),
	}
	if len(lat) > 0 {
		m["simcycles_per_s"] = float64(simCycles) / busy.Seconds()
		m["ops_per_s"] = float64(len(lat)) / busy.Seconds()
		m["op_p50_ms"] = median(groups)
		m["op_tail_ms"] = percentile(lat, w.tail)
	}
	if len(setups) > 0 {
		m["setup_s"] = median(setups)
	}
	return m
}

// plainOnly are the layer timings taken from untraced ops only: the
// program's own instrumentation would inflate them.
var plainOnly = map[string]bool{
	"soc.new_ms": true, "workload.build_ms": true, "profiling.new_session_ms": true,
	"profiling.run_ns_per_simcycle": true, "profiling.result_ms": true,
	"profiling.report_ms": true, "profiling.result_share": true,
}

// traced is the per-layer run. Every input runs untraced with outside
// spans only, then with the program's Spec.Obs/Spec.Tracer (or campaign
// Obs/Tracer) switched on, then as its bare twin. All spans are kept in
// tr, one trace row per kind of run.
func (b *bench) traced(dur time.Duration, tr *obs.Tracer) map[string]float64 {
	w := b.r.w
	tr.SetProcessName(1, "untraced ops (outside spans)")
	tr.SetProcessName(2, "traced ops")
	tr.SetProcessName(3, "bare twins")
	tr.SetProcessName(4, "setup")
	ingest := func(pid int, from *obs.Tracer) {
		for _, sp := range from.Export() {
			tr.IngestSpan(pid, sp)
		}
	}
	samples := map[string][]float64{}
	addAll := func(layers map[string]float64, skip map[string]bool) {
		for k, v := range layers {
			if !skip[k] {
				samples[k] = append(samples[k], v)
			}
		}
	}
	var plainLat, tracedLat []float64
	setupTr := obs.NewTracer()
	setupSW := newStopwatch(setupTr)
	b.setupPhase(1, setupSW)
	ingest(4, setupTr)
	addAll(setupSW.layers(), nil)
	gc0, cpu0 := cpuSeconds()
	start := time.Now()
	untraced := func(in input) {
		opTr := obs.NewTracer()
		a0 := allocBytes()
		res, ok := b.do(in, instr{spans: opTr})
		alloc := allocBytes() - a0
		ingest(1, opTr)
		if ok {
			addAll(res.layers, nil)
			samples["runtime.alloc_bytes_per_simcycle"] = append(samples["runtime.alloc_bytes_per_simcycle"],
				float64(alloc)/float64(res.simCycles))
			plainLat = append(plainLat, float64(res.latency))
		}
	}
	traced := func(in input) {
		opTr := obs.NewTracer()
		res, ok := b.do(in, instr{spans: opTr, tracer: opTr, reg: obs.New()})
		ingest(2, opTr)
		if ok {
			addAll(res.layers, plainOnly)
			tracedLat = append(tracedLat, float64(res.latency))
		}
	}
	for i := 0; i == 0 || i%w.balance != 0 || (time.Since(start) < dur && time.Since(start) < hardCap); i++ {
		in := b.inputs[i%len(b.inputs)]
		// Alternate which variant runs first, so neither always pays for
		// the garbage the previous op left.
		if i%2 == 0 {
			untraced(in)
			traced(in)
		} else {
			traced(in)
			untraced(in)
		}
		if w.twin != nil {
			opTr := obs.NewTracer()
			b.attempted++
			layers, err := safely(func() (map[string]float64, error) { return w.twin(b.r, in, newStopwatch(opTr)) })
			ingest(3, opTr)
			if err != nil {
				b.fail(in, fmt.Errorf("bare twin: %w", err))
			} else {
				addAll(layers, nil)
			}
		}
	}
	gc1, cpu1 := cpuSeconds()

	m := map[string]float64{}
	for _, l := range perLayer {
		m[l.Name] = 0
	}
	var tickerTotal float64
	for k, v := range samples {
		if _, ok := m[k]; ok {
			m[k] = median(v)
		}
		if strings.HasSuffix(k, ".sampled_ns") {
			tickerTotal += sum(v)
		}
	}
	// Ticker shares pool every traced op: a ticker that only some mixes
	// use (pcp, dma) still gets its share of the workload's time.
	for k, v := range samples {
		if name, ok := strings.CutSuffix(k, ".sampled_ns"); ok && tickerTotal > 0 {
			m[name+".share"] = sum(v) / tickerTotal
		}
	}
	if run, bare := m["profiling.run_ns_per_simcycle"], m["soc.bare_ns_per_simcycle"]; run > 0 && bare > 0 {
		m["mcds.path_ns_per_simcycle"] = run - bare
	}
	if cpu1 > cpu0 {
		m["runtime.gc_cpu_frac"] = (gc1 - gc0) / (cpu1 - cpu0)
	}
	if len(plainLat) > 0 && len(tracedLat) > 0 {
		m["trace.overhead_frac"] = median(tracedLat)/median(plainLat) - 1
	}
	// Exact counts of the first balance group, which every traced run
	// covers: one input per mix.
	var c counts
	for _, in := range b.inputs[:w.balance] {
		for k, res := range b.seen {
			if strings.HasPrefix(k, in.Key+"/") && res.counts != nil {
				c.add(*res.counts)
			}
		}
	}
	c.metrics(m)
	return m
}

func cpuSeconds() (gc, total float64) {
	s := []metrics.Sample{{Name: "/cpu/classes/gc/total:cpu-seconds"}, {Name: "/cpu/classes/total:cpu-seconds"}}
	metrics.Read(s)
	if s[0].Value.Kind() != metrics.KindFloat64 || s[1].Value.Kind() != metrics.KindFloat64 {
		return 0, 0
	}
	return s[0].Value.Float64(), s[1].Value.Float64()
}

func allocBytes() uint64 {
	s := []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}}
	metrics.Read(s)
	if s[0].Value.Kind() != metrics.KindUint64 {
		return 0
	}
	return s[0].Value.Uint64()
}

// residentMB is the process's resident set (VmRSS), in MiB. The run's
// peak is sampled after every timed op rather than read from VmHWM:
// VmHWM also catches spikes inside an op whose size depends on when the
// GC happens to run, and read 21.7 and 26.8 MiB on two identical session
// runs, where the sampled peak read 21.7 and 23.0. Sampled after ops
// that did not start from a collected heap, the peak still read either
// about 21 or about 26.6 MiB over ten session runs.
func residentMB() float64 {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(data), "\n") {
		if v, ok := strings.CutPrefix(line, "VmRSS:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(v), " kB"), 64)
			if err == nil {
				return kb / 1024
			}
		}
	}
	return 0
}

func printTable(w io.Writer, wl *workloadDef, seed uint64, b *bench, table []metric, m map[string]float64) {
	fmt.Fprintf(w, "perfbench %s: seed %d, %d inputs, %d ops attempted, %d failed, op_tail_ms = p%s\n",
		wl.name, seed, len(b.inputs), b.attempted, b.failed, strconv.FormatFloat(wl.tail, 'f', -1, 64))
	for _, mt := range table {
		fmt.Fprintf(w, "  %-34s %16.6g %-6s", mt.Name, m[mt.Name], mt.Unit)
		if mt.Moves != "" {
			fmt.Fprintf(w, "  -> %s", mt.Moves)
		}
		fmt.Fprintln(w)
	}
}

// printResult prints the result line the driver reads: the last line of
// standard output.
func printResult(w io.Writer, b *bench, table []metric, m map[string]float64) int {
	type val struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	res := struct {
		Correct   bool           `json:"correct"`
		Attempted int            `json:"attempted"`
		Failed    int            `json:"failed"`
		Metrics   map[string]val `json:"metrics"`
	}{Correct: b.failed == 0 && b.attempted > 0, Attempted: b.attempted, Failed: b.failed, Metrics: map[string]val{}}
	for _, mt := range table {
		v := m[mt.Name]
		if math.IsNaN(v) || math.IsInf(v, 0) {
			v = 0
		}
		res.Metrics[mt.Name] = val{v, mt.Unit}
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	fmt.Fprintln(w, string(line))
	return 0
}

// regenerate recomputes the golden digests: one untraced and one traced
// round of every workload at the default seed, at both sizes.
func regenerate(g goldens, path, out string) error {
	if err := os.MkdirAll(out, 0o755); err != nil {
		return err
	}
	tmp, err := os.MkdirTemp(out, "regen-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(tmp)
	g.Digests = map[string]map[string]string{}
	for _, w := range workloads {
		for name, sz := range map[string]size{"full": w.full, "smoke": w.smoke} {
			b := newBench(w, sz, g.DefaultSeed, tmp, nil)
			b.oneRound()
			if b.failed > 0 {
				return fmt.Errorf("%s/%s: %s", w.name, name, strings.Join(b.failures, "; "))
			}
			d := map[string]string{}
			for k, res := range b.seen {
				d[k] = res.digest
			}
			g.Digests[w.name+"/"+name] = d
		}
	}
	data, err := json.MarshalIndent(g, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// oneRound runs every input once untraced and once traced.
func (b *bench) oneRound() {
	for _, in := range b.inputs {
		b.do(in, instr{})
		tr := obs.NewTracer()
		b.do(in, instr{spans: tr, tracer: tr, reg: obs.New()})
	}
}
