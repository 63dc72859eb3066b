package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"os"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/campaign"
	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/profiling"
	"repro/internal/runcfg"
	"repro/internal/sim"
	"repro/internal/soc"
	"repro/internal/workload"
)

// mixes are the product-path application shapes every session, lossy and
// fleet op rotates over.
var mixes = []string{"engine", "tableheavy", "canheavy", "dmaflow", "branchy"}

// resimStructureSeed fixes the structure of the resim fleet (code size,
// tables, HW/SW split, optional tasks). workload.Fleet draws structure
// from its seed, and structure sets the cost of an Evaluate call, so a
// fleet drawn from the run seed would make op latency vary between seeds
// by more than any bound; the run seed varies each customer's own seed.
const resimStructureSeed = 1

// size is the scale of one workload's inputs. Full is what the benchmark
// measures; smoke is a tiny horizon for the tests.
type size struct {
	Cycles  uint64 // session horizon; fleet cell horizon
	Iters   uint32 // resim: main-loop iterations per MeasureCycles
	Horizon uint64 // resim: ProfileApp horizon
}

// input is one op's generated input. Key names it within a round, so
// repeats and golden digests line up.
type input struct {
	Key  string
	Mix  string
	Seed uint64
}

// instr is the instrumentation an op runs under. The zero value is an
// untraced op. spans receives the benchmark's own outside spans around
// public calls; tracer and reg are handed to the program's existing
// Spec.Tracer/Spec.Obs and campaign Tracer/Obs surfaces.
type instr struct {
	spans  *obs.Tracer
	tracer *obs.Tracer
	reg    *obs.Registry
}

// opResult is what one op produced and cost.
type opResult struct {
	output    string        // what was digested: report, ranking, replay or profile
	digest    string        // hash of the output
	simCycles uint64        // simulated cycles the op completed
	latency   time.Duration // the op as a user waits for it
	counts    *counts       // exact simulated counts, nil when the op cannot see them
	layers    map[string]float64
}

// stopwatch times calls into public functions from outside, optionally
// recording each as a span.
type stopwatch struct {
	tr *obs.Tracer
	ms map[string]float64
}

func newStopwatch(tr *obs.Tracer) *stopwatch {
	return &stopwatch{tr: tr, ms: map[string]float64{}}
}

// do runs fn under a span and adds its wall time, in ms, to name.
func (sw *stopwatch) do(name string, fn func() error) error {
	sp := sw.tr.Start(name, "bench")
	t := time.Now()
	err := fn()
	sw.ms[name] += float64(time.Since(t)) / 1e6
	sp.End()
	return err
}

// callLayers maps each timed public call to the per-layer metric that
// reports its wall time; other calls are recorded as spans only.
var callLayers = map[string]string{
	"soc.New":              "soc.new_ms",
	"workload.Build":       "workload.build_ms",
	"profiling.NewSession": "profiling.new_session_ms",
	"Session.Result":       "profiling.result_ms",
	"Session.RunReport":    "profiling.report_ms",
	"core.ProfileApp":      "core.profile_app_ms",
	"core.MeasureCycles":   "core.measure_cycles_ms",
}

// layers returns the per-layer metrics of the calls timed so far.
func (sw *stopwatch) layers() map[string]float64 {
	out := map[string]float64{}
	for call, ms := range sw.ms {
		if name, ok := callLayers[call]; ok {
			out[name] = ms
		}
	}
	return out
}

// workloadDef is one benchmark workload.
type workloadDef struct {
	name   string
	doc    string
	tail   float64 // percentile reported as op_tail_ms
	minOps int     // ops a run completes even when --seconds is up
	// balance is the length of the input groups a run only stops between:
	// one op per mix, so every mix is equally represented in the medians.
	balance int
	full    size
	smoke   size
	inputs  func(seed uint64) []input
	op      func(r *runner, in input, ins instr) (opResult, error)
	// setup constructs the systems an op on in builds before it
	// simulates, and nothing else; setup_s is its median wall time.
	setup func(r *runner, in input, sw *stopwatch) error
	// twin runs the trace-only outside twin of an input (the same
	// systems without the measured layer); nil when there is none.
	twin func(r *runner, in input, sw *stopwatch) (map[string]float64, error)
}

// why is the manifest line: the workload's reason plus the tail
// percentile op_tail_ms is reported at.
func (w *workloadDef) why() string {
	return fmt.Sprintf("%s; op_tail_ms is p%s of at least %d ops", w.doc,
		strconv.FormatFloat(w.tail, 'f', -1, 64), w.minOps)
}

var workloads = []*workloadDef{
	{
		name:    "session",
		doc:     "clean TC1797ED profiling sessions over five mixes, the product path where MCDS is most of the host time",
		tail:    tailPercentile(100),
		minOps:  100,
		balance: len(mixes),
		full:    size{Cycles: 300_000},
		smoke:   size{Cycles: 20_000},
		inputs:  mixInputs,
		op:      sessionOp,
		setup:   sessionSetup,
		twin:    sessionTwin,
	},
	{
		name:    "lossy",
		doc:     "the same cells framed under the everything fault scenario at resolution 100: 10x messages, retries, resync decode",
		tail:    tailPercentile(50),
		minOps:  50,
		balance: len(mixes),
		full:    size{Cycles: 300_000},
		smoke:   size{Cycles: 20_000},
		inputs:  mixInputs,
		op:      sessionOp,
		setup:   sessionSetup,
		twin:    sessionTwin,
	},
	{
		name:    "resim",
		doc:     "core.Evaluate of a six-app fleet over the catalog; bare MeasureCycles dominates and MCDS runs only in ProfileApp",
		tail:    tailPercentile(20),
		minOps:  20,
		balance: 1,
		full:    size{Iters: 300, Horizon: 40_000},
		smoke:   size{Iters: 20, Horizon: 5_000},
		inputs:  func(seed uint64) []input { return []input{{Key: "fleet6", Seed: seed}} },
		op:      resimOp,
		setup:   resimSetup,
		twin:    resimTwin,
	},
	{
		name:    "fleet",
		doc:     "in-process campaign.Run, nproc-1 workers (at least one) and a journal: five mixes x {clean, flaky-cable}; the only worker-pool workload",
		tail:    tailPercentile(40),
		minOps:  40,
		balance: 1,
		full:    size{Cycles: 100_000},
		smoke:   size{Cycles: 10_000},
		inputs:  func(seed uint64) []input { return []input{{Key: "matrix", Seed: opSeed(seed, 0)}} },
		op:      fleetOp,
		setup:   fleetSetup,
	},
}

func findWorkload(name string) *workloadDef {
	for _, w := range workloads {
		if w.name == name {
			return w
		}
	}
	return nil
}

// opSeed derives the k-th per-op seed from the run seed (splitmix64), so
// inputs depend only on the run seed and not on the simulator's own RNG.
func opSeed(seed uint64, k int) uint64 {
	z := seed + uint64(k+1)*0x9E3779B97F4A7C15
	z = (z ^ z>>30) * 0xBF58476D1CE4E5B9
	z = (z ^ z>>27) * 0x94D049BB133111EB
	return z ^ z>>31
}

// seedsPerMix is how many differently seeded applications of each mix a
// session or lossy run rotates over. Op cost depends on the generated
// code, so one seed per mix would let the run seed alone move the
// medians by 15 % or more.
const seedsPerMix = 6

// mixInputs is the rotation of a session or lossy run: six passes over
// the mixes, each with its own seeds.
func mixInputs(seed uint64) []input {
	var in []input
	for j := 0; j < seedsPerMix; j++ {
		for _, m := range mixes {
			in = append(in, input{Key: fmt.Sprintf("%s.%d", m, j), Mix: m, Seed: opSeed(seed, len(in))})
		}
	}
	return in
}

// runner holds one run's configuration and the per-input state ops share.
type runner struct {
	w    *workloadDef
	sz   size
	tmp  string // scratch directory for campaign journals
	refs map[string]*resimRef
}

func digest(b []byte) string {
	h := sha256.Sum256(b)
	return hex.EncodeToString(h[:])
}

// sessionParams is the product parameter set: the paper's standard
// parameters plus the PCP's.
func sessionParams() []profiling.Param {
	return append(profiling.StandardParams(), profiling.PCPParams()...)
}

// sessionRun is the run configuration of one session or lossy cell: a
// TC1797 with a DAP drain, unframed at resolution 1000, or framed under
// the everything scenario at resolution 100.
func (r *runner) sessionRun(in input) runcfg.Run {
	run := runcfg.Run{SoC: "TC1797", Seed: in.Seed, Cycles: r.sz.Cycles, Resolution: 1000}
	if r.w.name == "lossy" {
		run.Resolution = 100
		run.Faults = "everything"
		run.Framed = true
	}
	return run
}

// built is one constructed product cell.
type built struct {
	spec workload.Spec
	soc  *soc.SoC
	app  *workload.App
	sess *profiling.Session
}

// construct builds a product cell the way a campaign cell does: the ED
// twin of the run's SoC, the mix's application, and a session programmed
// from the run's spec.
func construct(run runcfg.Run, mix string, ins instr, sw *stopwatch) (*built, error) {
	cfg, err := run.SoCConfig()
	if err != nil {
		return nil, err
	}
	cfg = cfg.WithED()
	spec, ok := workload.Mix(mix, run.Seed)
	if !ok {
		return nil, fmt.Errorf("unknown mix %q", mix)
	}
	pspec, err := run.SessionSpec(sessionParams())
	if err != nil {
		return nil, err
	}
	pspec.Obs, pspec.Tracer = ins.reg, ins.tracer
	b := &built{spec: spec}
	sw.do("soc.New", func() error { b.soc = soc.New(cfg, run.Seed); return nil })
	if err := sw.do("workload.Build", func() (err error) {
		b.app, err = workload.Build(b.soc, spec)
		return err
	}); err != nil {
		return nil, err
	}
	sw.do("profiling.NewSession", func() error { b.sess = profiling.NewSession(b.soc, pspec); return nil })
	return b, nil
}

// sessionOp is one profiling session from build to encoded RunReport.
func sessionOp(r *runner, in input, ins instr) (opResult, error) {
	run := r.sessionRun(in)
	sw := newStopwatch(ins.spans)
	opSpan := ins.spans.Start("op", "bench")
	start := time.Now()
	b, err := construct(run, in.Mix, ins, sw)
	if err != nil {
		return opResult{}, err
	}
	if err := sw.do("Session.Run", func() error {
		return b.sess.Run(context.Background(), b.app, run.Cycles)
	}); err != nil {
		return opResult{}, err
	}
	var prof *profiling.Profile
	if err := sw.do("Session.Result", func() (err error) {
		prof, err = b.sess.Result(b.spec.Name)
		return err
	}); err != nil {
		return opResult{}, err
	}
	var rep *profiling.RunReport
	var buf bytes.Buffer
	if err := sw.do("Session.RunReport", func() error {
		rep = b.sess.RunReport(prof, run.Seed)
		rep.Metrics = nil // host-time figures of an instrumented session are not output
		return rep.WriteJSON(&buf)
	}); err != nil {
		return opResult{}, err
	}
	latency := time.Since(start)
	opSpan.End()

	if err := checkReport(rep, b, run); err != nil {
		return opResult{}, err
	}
	c := socCounts(b.soc)
	c.addSession(b.sess, prof)
	res := opResult{
		output:    "report",
		digest:    digest(buf.Bytes()),
		simCycles: rep.Cycles,
		latency:   latency,
		counts:    &c,
		layers:    sw.layers(),
	}
	res.layers["profiling.run_ns_per_simcycle"] = sw.ms["Session.Run"] * 1e6 / float64(run.Cycles)
	res.layers["profiling.result_share"] = sw.ms["Session.Result"] * 1e6 / float64(latency)
	if ins.tracer != nil {
		for _, sp := range ins.tracer.Export() {
			switch sp.Name {
			case "drain", "decode", "assemble":
				res.layers["profiling."+sp.Name+"_ms"] += float64(sp.Dur) / 1e6
			}
		}
	}
	tickerNS(ins.reg, res.layers)
	return res, nil
}

// sessionSetup constructs a session or lossy cell.
func sessionSetup(r *runner, in input, sw *stopwatch) error {
	_, err := construct(r.sessionRun(in), in.Mix, instr{}, sw)
	return err
}

// checkReport enforces the per-op invariants of a session: the horizon
// is reached, every parameter is reported, and a clean cell has no loss
// and confidence 1, while a lossy one still delivers, with a confidence
// in [0, 1] (a heavy fault plan can leave every window suspect).
func checkReport(rep *profiling.RunReport, b *built, run runcfg.Run) error {
	switch {
	case b.soc.Clock.Cycle() != run.Cycles || rep.Cycles != run.Cycles:
		return fmt.Errorf("horizon not reached: clock %d, report %d, want %d",
			b.soc.Clock.Cycle(), rep.Cycles, run.Cycles)
	case len(rep.Params) != len(sessionParams()):
		return fmt.Errorf("%d parameters reported, want %d", len(rep.Params), len(sessionParams()))
	}
	if run.Faults == "" {
		l := rep.Loss
		if l.MsgsLost != 0 || l.LinkLost != 0 || l.Gaps != 0 || rep.Ring.Overflows != 0 || rep.Confidence != 1 {
			return fmt.Errorf("clean cell lost trace: %+v overflows=%d confidence=%v",
				l, rep.Ring.Overflows, rep.Confidence)
		}
		return nil
	}
	if !rep.Framed || rep.Loss.MsgsDelivered == 0 || rep.Confidence < 0 || rep.Confidence > 1 {
		return fmt.Errorf("lossy cell: framed=%v delivered=%d confidence=%v",
			rep.Framed, rep.Loss.MsgsDelivered, rep.Confidence)
	}
	return nil
}

// tickerNS copies the clock's sampled per-ticker nanoseconds, which an
// instrumented clock publishes, into layers. Peripheral tickers carry
// their application's name and are summed as periph; the traced run turns
// the sums into shares of all ticker time.
func tickerNS(reg *obs.Registry, layers map[string]float64) {
	for _, c := range reg.Snapshot().Counters {
		name, ok := strings.CutPrefix(c.Name, "sim.ticker.")
		if !ok {
			continue
		}
		name = strings.TrimSuffix(name, ".sampled_ns")
		switch name {
		case "cpu", "pcp", "dma", "mcds", "dap", "fault", "degrade":
		default:
			name = "periph"
		}
		layers["sim.ticker."+name+".sampled_ns"] += float64(c.Value)
	}
}

// sessionTwin runs the bare twin of a session input: the same SoC, mix,
// seed and horizon through App.RunFor with no session attached.
func sessionTwin(r *runner, in input, sw *stopwatch) (map[string]float64, error) {
	run := r.sessionRun(in)
	cfg, err := run.SoCConfig()
	if err != nil {
		return nil, err
	}
	spec, ok := workload.Mix(in.Mix, in.Seed)
	if !ok {
		return nil, fmt.Errorf("unknown mix %q", in.Mix)
	}
	ns, err := bareRun(cfg.WithED(), spec, run.Cycles, nil, sw)
	if err != nil {
		return nil, err
	}
	return map[string]float64{"soc.bare_ns_per_simcycle": ns}, nil
}

// bareRun builds spec on cfg and runs it for cycles with no session,
// returning host ns per simulated cycle. A non-nil reg instruments the
// clock for per-ticker shares.
func bareRun(cfg soc.Config, spec workload.Spec, cycles uint64, reg *obs.Registry, sw *stopwatch) (float64, error) {
	s := soc.New(cfg, spec.Seed)
	app, err := workload.Build(s, spec)
	if err != nil {
		return 0, err
	}
	s.Clock.Instrument(reg, 0)
	t := time.Now()
	sw.do("App.RunFor", func() error { app.RunFor(cycles); return nil })
	return float64(time.Since(t)) / float64(cycles), nil
}

// resimParams are the evaluation parameters of a resim op: the default
// EvalParams with the profiling horizon cut tenfold, which gives
// MeasureCycles the same weight against ProfileApp as raising Iters
// tenfold would, at a tenth of the cost per op.
func (r *runner) resimParams() core.EvalParams {
	prm := core.DefaultEvalParams()
	prm.Iters = r.sz.Iters
	prm.ProfileHorizon = r.sz.Horizon
	return prm
}

// resimFleet is the six-customer fleet of a resim input.
func resimFleet(in input) []workload.Spec {
	fleet := workload.Fleet(6, resimStructureSeed)
	for i := range fleet {
		fleet[i].Seed = opSeed(in.Seed, i)
	}
	return fleet
}

// resimRef is an outside replay of Evaluate's call sequence for one
// input: what every Evaluate of that input must reproduce exactly.
type resimRef struct {
	profiles  []core.AppProfile
	base      []uint64   // base-configuration cycles per app
	cycles    [][]uint64 // [option][app] re-simulated cycles
	simCycles uint64
	counts    counts
	digest    string
}

// replayEvaluate calls ProfileApp and MeasureCycles in the order Evaluate
// does, each under an outside span.
func replayEvaluate(fleet []workload.Spec, prm core.EvalParams, sw *stopwatch) (*resimRef, error) {
	base := soc.TC1797()
	opts := core.Catalog()
	ref := &resimRef{cycles: make([][]uint64, len(opts))}
	var c counts
	measure := func(cfg soc.Config, spec workload.Spec) (uint64, error) {
		var cy uint64
		err := sw.do("core.MeasureCycles", func() error {
			var app *workload.App
			var err error
			cy, app, err = core.MeasureCycles(cfg, spec, prm.Iters, prm.Limit)
			if err == nil {
				c.add(socCounts(app.SoC))
			}
			return err
		})
		ref.simCycles += cy
		return cy, err
	}
	for _, spec := range fleet {
		if err := sw.do("core.ProfileApp", func() error {
			ap, err := core.ProfileApp(base, spec, prm.ProfileHorizon)
			ref.profiles = append(ref.profiles, ap)
			return err
		}); err != nil {
			return nil, err
		}
		ref.simCycles += prm.ProfileHorizon
		cy, err := measure(base, spec)
		if err != nil {
			return nil, err
		}
		ref.base = append(ref.base, cy)
	}
	for o, opt := range opts {
		for _, spec := range fleet {
			if opt.MutateSpec != nil {
				spec = opt.MutateSpec(spec)
			}
			cy, err := measure(opt.Mutate(base), spec)
			if err != nil {
				return nil, err
			}
			ref.cycles[o] = append(ref.cycles[o], cy)
			c.Resims++
			c.ResimCycles += cy
		}
	}
	ref.counts = c
	var b strings.Builder
	for o := range opts {
		for i := range fleet {
			fmt.Fprintf(&b, "%s/%d est=%s mea=%d/%d\n", opts[o].Name, i,
				fmtFloat(opts[o].Estimate(ref.profiles[i])), ref.base[i], ref.cycles[o][i])
		}
	}
	ref.digest = digest([]byte(b.String()))
	return ref, nil
}

func fmtFloat(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }

// ref returns the replay of an input, computing it on first use.
func (r *runner) ref(in input) (*resimRef, error) {
	if ref, ok := r.refs[in.Key]; ok {
		return ref, nil
	}
	ref, err := replayEvaluate(resimFleet(in), r.resimParams(), newStopwatch(nil))
	if err != nil {
		return nil, err
	}
	r.refs[in.Key] = ref
	return ref, nil
}

// resimOp is one core.Evaluate ranking. Traced, it is the outside
// replay of Evaluate's call sequence instead, which yields the split
// between ProfileApp and MeasureCycles.
func resimOp(r *runner, in input, ins instr) (opResult, error) {
	ref, err := r.ref(in)
	if err != nil {
		return opResult{}, err
	}
	fleet := resimFleet(in)
	prm := r.resimParams()
	sw := newStopwatch(ins.spans)
	opSpan := ins.spans.Start("op", "bench")
	start := time.Now()
	if ins.tracer != nil {
		replay, err := replayEvaluate(fleet, prm, sw)
		if err != nil {
			return opResult{}, err
		}
		latency := time.Since(start)
		opSpan.End()
		if replay.digest != ref.digest {
			return opResult{}, fmt.Errorf("replay of Evaluate changed its results")
		}
		layers := sw.layers()
		layers["core.measure_cycles_share"] = sw.ms["core.MeasureCycles"] * 1e6 / float64(latency)
		return opResult{output: "replay", digest: replay.digest, simCycles: replay.simCycles,
			latency: latency, counts: &replay.counts, layers: layers}, nil
	}
	var ev *core.Evaluation
	err = sw.do("core.Evaluate", func() (err error) {
		ev, err = core.Evaluate(soc.TC1797(), fleet, core.Catalog(), prm)
		return err
	})
	latency := time.Since(start)
	opSpan.End()
	if err != nil {
		return opResult{}, err
	}
	d, err := checkEvaluation(ev, ref, fleet)
	if err != nil {
		return opResult{}, err
	}
	return opResult{output: "ranking", digest: d, simCycles: ref.simCycles, latency: latency, layers: sw.layers()}, nil
}

// resimSetup constructs what Evaluate builds before each simulation:
// every customer's SoC and application, once, on the base configuration.
func resimSetup(r *runner, in input, sw *stopwatch) error {
	for _, spec := range resimFleet(in) {
		var s *soc.SoC
		sw.do("soc.New", func() error { s = soc.New(soc.TC1797(), spec.Seed); return nil })
		if err := sw.do("workload.Build", func() error {
			_, err := workload.Build(s, spec)
			return err
		}); err != nil {
			return err
		}
	}
	return nil
}

// checkEvaluation checks that every catalog option is ranked once, with
// the estimates and measured speedups the outside replay computed, and
// returns the digest of the ranking.
func checkEvaluation(ev *core.Evaluation, ref *resimRef, fleet []workload.Spec) (string, error) {
	opts := core.Catalog()
	if len(ev.Ranking) != len(opts) {
		return "", fmt.Errorf("%d options ranked, want %d", len(ev.Ranking), len(opts))
	}
	index := map[string]int{}
	for o, opt := range opts {
		index[opt.Name] = o
	}
	var b strings.Builder
	fmt.Fprintf(&b, "base=%s\n", ev.Base.Name)
	for _, rk := range ev.Ranking {
		o, ok := index[rk.Option.Name]
		if !ok {
			return "", fmt.Errorf("unknown or repeated option %q in ranking", rk.Option.Name)
		}
		delete(index, rk.Option.Name)
		if len(rk.PerApp) != len(fleet) {
			return "", fmt.Errorf("option %s: %d apps, want %d", rk.Option.Name, len(rk.PerApp), len(fleet))
		}
		fmt.Fprintf(&b, "%s est=%s mea=%s min=%s gpa=%s rej=%t\n", rk.Option.Name,
			fmtFloat(rk.EstMean), fmtFloat(rk.MeaMean), fmtFloat(rk.MeaMin), fmtFloat(rk.GainPerArea), rk.Rejected)
		for i, ar := range rk.PerApp {
			wantEst := opts[o].Estimate(ref.profiles[i])
			wantMea := float64(ref.base[i]) / float64(ref.cycles[o][i])
			if ar.App != fleet[i].Name || ar.Estimated != wantEst || ar.Measured != wantMea {
				return "", fmt.Errorf("option %s app %s: est %v mea %v, replay says %v %v",
					rk.Option.Name, ar.App, ar.Estimated, ar.Measured, wantEst, wantMea)
			}
			fmt.Fprintf(&b, "  %s est=%s mea=%s\n", ar.App, fmtFloat(ar.Estimated), fmtFloat(ar.Measured))
		}
	}
	return digest([]byte(b.String())), nil
}

// resimTwin runs each fleet app bare on the base configuration for its
// measured base cycles: uninstrumented for ns per simulated cycle, and
// again with an instrumented clock for the per-ticker shares, which
// Evaluate's own SoCs do not publish.
func resimTwin(r *runner, in input, sw *stopwatch) (map[string]float64, error) {
	ref, err := r.ref(in)
	if err != nil {
		return nil, err
	}
	var ns float64
	var cycles uint64
	reg := obs.New()
	for i, spec := range resimFleet(in) {
		v, err := bareRun(soc.TC1797(), spec, ref.base[i], nil, sw)
		if err != nil {
			return nil, err
		}
		ns += v * float64(ref.base[i])
		cycles += ref.base[i]
		if _, err := bareRun(soc.TC1797(), spec, ref.base[i], reg, sw); err != nil {
			return nil, err
		}
	}
	layers := map[string]float64{"soc.bare_ns_per_simcycle": ns / float64(cycles)}
	tickerNS(reg, layers)
	return layers, nil
}

// fleetMatrix is the campaign of a fleet input: the five mixes clean and
// over a flaky cable, one seed variant each.
func (r *runner) fleetMatrix(in input) campaign.Matrix {
	return campaign.Matrix{
		Name:        "perfbench",
		Seed:        in.Seed,
		Seeds:       1,
		SoCs:        []string{"TC1797"},
		Mixes:       mixes,
		Faults:      []string{"clean", "flaky-cable"},
		Resolutions: []uint64{1000},
		Cycles:      r.sz.Cycles,
	}
}

// fleetSetup does what a campaign does before its cells simulate: opens
// a journal directory, expands the matrix, and constructs every cell as
// the workers would.
func fleetSetup(r *runner, in input, sw *stopwatch) error {
	dir, err := os.MkdirTemp(r.tmp, "journal-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	var cells []campaign.Cell
	if err := sw.do("Matrix.Expand", func() (err error) { cells, err = r.fleetMatrix(in).Expand(); return err }); err != nil {
		return err
	}
	for _, cell := range cells {
		if _, err := construct(cell.Run, cell.Mix, instr{}, sw); err != nil {
			return err
		}
	}
	return nil
}

// fleetWorkers is the campaign's worker count: one fewer than the cores
// the process may use, and at least one. The last core is left to the
// supervisor, the journal, the GC and the host's other tenants; with a
// worker on every core of a shared two-core host, the campaign's latency
// followed the host's load and spread past a quarter of its median
// between runs of the same code.
func fleetWorkers() int { return max(1, runtime.GOMAXPROCS(0)-1) }

// fleetOp is one in-process campaign.Run with a journal.
func fleetOp(r *runner, in input, ins instr) (opResult, error) {
	m := r.fleetMatrix(in)
	sw := newStopwatch(ins.spans)
	dir, err := os.MkdirTemp(r.tmp, "journal-")
	if err != nil {
		return opResult{}, err
	}
	defer os.RemoveAll(dir)

	var mu sync.Mutex
	var c counts
	var bad []string
	opt := campaign.Options{
		Workers:    fleetWorkers(),
		JournalDir: dir,
		Obs:        ins.reg,
		Tracer:     ins.tracer,
		OnReport: func(cell campaign.Cell, rep *profiling.RunReport) {
			mu.Lock()
			defer mu.Unlock()
			c.addReport(rep)
			if rep.Cycles != cell.Run.Cycles {
				bad = append(bad, fmt.Sprintf("cell %s: %d cycles, want %d", cell.ID, rep.Cycles, cell.Run.Cycles))
			}
		},
	}
	opSpan := ins.spans.Start("op", "bench")
	start := time.Now()
	var res *campaign.Result
	err = sw.do("campaign.Run", func() (err error) {
		res, err = campaign.Run(context.Background(), m, opt)
		return err
	})
	latency := time.Since(start)
	opSpan.End()
	if err != nil {
		return opResult{}, err
	}
	if len(bad) > 0 {
		return opResult{}, fmt.Errorf("horizon not reached: %s", strings.Join(bad, "; "))
	}
	if res.Completed != res.Cells || res.Cells != m.Size() || res.Failed != 0 || res.Profile == nil {
		return opResult{}, fmt.Errorf("campaign completed %d of %d cells (%d failed)", res.Completed, res.Cells, res.Failed)
	}
	for _, fr := range res.Profile.Runs {
		if fr.FaultPlan == "" && fr.Confidence != 1 {
			return opResult{}, fmt.Errorf("clean cell %s has confidence %v", fr.ID, fr.Confidence)
		}
	}
	var buf bytes.Buffer
	if err := res.Profile.WriteJSON(&buf); err != nil {
		return opResult{}, err
	}
	c.CampaignRetries = uint64(res.Retried)
	out := opResult{output: "profile", digest: digest(buf.Bytes()), simCycles: res.SimCycles,
		latency: latency, counts: &c, layers: sw.layers()}
	if ins.tracer != nil {
		for _, sp := range ins.tracer.Export() {
			switch sp.Name {
			case "expand", "journal", "execute", "aggregate":
				out.layers["campaign."+sp.Name+"_ms"] += float64(sp.Dur) / 1e6
			}
		}
		snap := ins.reg.Snapshot()
		var util float64
		var n int
		for _, g := range snap.Gauges {
			if strings.HasPrefix(g.Name, "campaign_worker") && strings.HasSuffix(g.Name, "_util") {
				util += g.Value
				n++
			}
		}
		if n > 0 {
			out.layers["campaign.worker_util"] = util / float64(n)
		}
	}
	return out, nil
}

// counts are exact simulated counts, read from public accessors after an
// op. They describe simulated work, so they repeat bit for bit.
type counts struct {
	Instr, Cycles, Stalls              uint64
	BlockHits, BlockMisses, BlockEvict uint64
	ICacheHits, ICacheAccess           uint64
	DCacheHits, DCacheAccess           uint64
	FlashReads                         uint64
	Msgs, Bytes, Lost                  uint64
	EMEMPeak, EMEMDropped              uint64
	DAPFrames, DAPRetries, DAPAbandon  uint64
	DAPGarbage                         uint64
	Delivered, Offered, Gaps           uint64
	CampaignRetries                    uint64
	Resims, ResimCycles                uint64
}

// socCounts reads the core, decoder, cache and flash counts of a SoC.
func socCounts(s *soc.SoC) counts {
	cc := s.CPU.Counters()
	st := s.Decoder.Stats()
	return counts{
		Instr:        cc.Get(sim.EvInstrExecuted),
		Cycles:       cc.Get(sim.EvCycle),
		Stalls:       cc.Get(sim.EvStallCycle),
		BlockHits:    st.Hits,
		BlockMisses:  st.Misses,
		BlockEvict:   st.Evictions,
		ICacheHits:   cc.Get(sim.EvICacheHit),
		ICacheAccess: cc.Get(sim.EvICacheAccess),
		DCacheHits:   cc.Get(sim.EvDCacheHit),
		DCacheAccess: cc.Get(sim.EvDCacheAccess),
		FlashReads:   s.Flash.ArrayReads,
	}
}

// addSession adds the trace-path counts of a finished session.
func (c *counts) addSession(sess *profiling.Session, p *profiling.Profile) {
	c.Msgs += sess.MCDS.MsgsEmitted
	c.Bytes += sess.MCDS.BytesEmitted
	c.Lost += sess.MCDS.MsgsLost
	c.EMEMPeak = max(c.EMEMPeak, uint64(sess.SoC.EMEM.PeakLevel))
	c.EMEMDropped += sess.SoC.EMEM.MsgsDropped
	if d := sess.DAP; d != nil {
		c.DAPFrames += d.FramesDelivered
		c.DAPRetries += d.Retries
		c.DAPAbandon += d.FramesAbandoned
		c.DAPGarbage += d.GarbageBytes
	}
	delivered := p.MsgsDelivered
	if delivered == 0 {
		for _, se := range p.Series {
			delivered += uint64(len(se.Samples))
		}
	}
	c.Delivered += delivered
	c.Offered += delivered + p.LinkLost + p.MsgsLost
	c.Gaps += uint64(len(p.Gaps))
}

// addReport adds what a campaign cell's run report exposes.
func (c *counts) addReport(r *profiling.RunReport) {
	c.Instr += r.Instr
	c.Cycles += r.Cycles
	c.Bytes += r.Loss.TraceBytes
	c.Lost += r.Loss.MsgsLost
	c.EMEMPeak = max(c.EMEMPeak, uint64(r.Ring.Peak))
	c.EMEMDropped += r.Ring.Overflows
	c.Gaps += uint64(r.Loss.Gaps)
	if r.Framed {
		c.Delivered += r.Loss.MsgsDelivered
		c.Offered += r.Loss.MsgsDelivered + r.Loss.LinkLost + r.Loss.MsgsLost
	}
}

// add sums o into c (the EMEM peak is a maximum).
func (c *counts) add(o counts) {
	c.EMEMPeak = max(c.EMEMPeak, o.EMEMPeak)
	c.Instr += o.Instr
	c.Cycles += o.Cycles
	c.Stalls += o.Stalls
	c.BlockHits += o.BlockHits
	c.BlockMisses += o.BlockMisses
	c.BlockEvict += o.BlockEvict
	c.ICacheHits += o.ICacheHits
	c.ICacheAccess += o.ICacheAccess
	c.DCacheHits += o.DCacheHits
	c.DCacheAccess += o.DCacheAccess
	c.FlashReads += o.FlashReads
	c.Msgs += o.Msgs
	c.Bytes += o.Bytes
	c.Lost += o.Lost
	c.EMEMDropped += o.EMEMDropped
	c.DAPFrames += o.DAPFrames
	c.DAPRetries += o.DAPRetries
	c.DAPAbandon += o.DAPAbandon
	c.DAPGarbage += o.DAPGarbage
	c.Delivered += o.Delivered
	c.Offered += o.Offered
	c.Gaps += o.Gaps
	c.CampaignRetries += o.CampaignRetries
	c.Resims += o.Resims
	c.ResimCycles += o.ResimCycles
}

// metrics renders the counts as per-layer metrics.
func (c *counts) metrics(out map[string]float64) {
	ratio := func(a, b uint64) float64 {
		if b == 0 {
			return 0
		}
		return float64(a) / float64(b)
	}
	out["tricore.instr_retired"] = float64(c.Instr)
	out["tricore.stall_cycles"] = float64(c.Stalls)
	out["tricore.ipc"] = ratio(c.Instr, c.Cycles)
	out["isa.block_hit_ratio"] = ratio(c.BlockHits, c.BlockHits+c.BlockMisses)
	out["isa.block_evictions"] = float64(c.BlockEvict)
	out["cache.icache_hit_ratio"] = ratio(c.ICacheHits, c.ICacheAccess)
	out["cache.dcache_hit_ratio"] = ratio(c.DCacheHits, c.DCacheAccess)
	out["flash.reads"] = float64(c.FlashReads)
	out["mcds.msgs_emitted"] = float64(c.Msgs)
	out["mcds.bytes_emitted"] = float64(c.Bytes)
	out["mcds.msgs_lost"] = float64(c.Lost)
	out["emem.peak_bytes"] = float64(c.EMEMPeak)
	out["emem.msgs_dropped"] = float64(c.EMEMDropped)
	out["dap.frames_delivered"] = float64(c.DAPFrames)
	out["dap.retries"] = float64(c.DAPRetries)
	out["dap.frames_abandoned"] = float64(c.DAPAbandon)
	out["dap.garbage_bytes"] = float64(c.DAPGarbage)
	out["tmsg.delivered_ratio"] = ratio(c.Delivered, c.Offered)
	out["tmsg.gaps"] = float64(c.Gaps)
	out["campaign.retries"] = float64(c.CampaignRetries)
	out["core.resims"] = float64(c.Resims)
	out["core.resim_simcycles"] = float64(c.ResimCycles)
}
