package core

import (
	"context"
	"fmt"
	"math"
	"slices"
	"sort"

	"repro/internal/profiling"
	"repro/internal/soc"
	"repro/internal/workload"
)

// MeasureCycles builds spec on a SoC with cfg and returns the cycles
// needed to complete iters main-loop iterations (ground-truth speedup
// measurement). It also returns the application for further inspection.
// Zero iterations measure nothing and are an error.
func MeasureCycles(cfg soc.Config, spec workload.Spec, iters uint32, limit uint64) (uint64, *workload.App, error) {
	if iters == 0 {
		return 0, nil, fmt.Errorf("core: %s: zero iterations to measure", spec.Name)
	}
	s := soc.New(cfg, spec.Seed)
	app, err := workload.Build(s, spec)
	if err != nil {
		return 0, nil, err
	}
	s.CPU.StopAtReg(workload.IterReg, iters)
	cy, ok := s.Clock.RunToStop(limit)
	if !ok {
		return 0, nil, fmt.Errorf("core: %s did not reach %d iterations in %d cycles",
			spec.Name, iters, limit)
	}
	return cy, app, nil
}

// ProfileApp measures spec's profile on an ED twin of cfg using the
// standard parameter set.
func ProfileApp(cfg soc.Config, spec workload.Spec, horizon uint64) (AppProfile, error) {
	ed := cfg
	if !ed.ED {
		ed = ed.WithED()
	}
	s := soc.New(ed, spec.Seed)
	app, err := workload.Build(s, spec)
	if err != nil {
		return AppProfile{}, err
	}
	sess := profiling.NewSession(s, profiling.Spec{
		Resolution: 1000,
		Params:     profiling.StandardParams(),
	})
	if err := sess.Run(context.Background(), app, horizon); err != nil {
		return AppProfile{}, err
	}
	p, err := sess.Result(spec.Name)
	if err != nil {
		return AppProfile{}, err
	}
	return FromProfile(p, cfg), nil
}

// AppResult is one option × application measurement.
type AppResult struct {
	App       string
	Estimated float64 // analytical speedup
	Measured  float64 // re-simulated speedup (0 if not re-simulated)
}

// Ranked is the evaluation of one option across the fleet.
type Ranked struct {
	Option  Option
	PerApp  []AppResult
	EstMean float64 // geometric mean of analytical speedups
	MeaMean float64 // geometric mean of measured speedups
	MeaMin  float64 // worst-case measured speedup (regression detector)

	// GainPerArea is the ranking criterion: (mean speedup − 1) per area
	// unit — the paper's "performance gain ... / area increase" ratio —
	// over the measured mean when re-simulated (Gain). A cost saver's is
	// area saved per percent of performance lost.
	GainPerArea float64

	// Rejected marks options that regress at least one use case beyond
	// tolerance — the paper's "without negative side effects" filter.
	Rejected bool
}

// Gain returns the option's mean speedup across the fleet and what it
// rests on: "measured" when the option was re-simulated, "estimated"
// when only the analytical model ran.
func (r Ranked) Gain() (float64, string) {
	if r.MeaMean > 0 {
		return r.MeaMean, "measured"
	}
	return r.EstMean, "estimated"
}

// Evaluation is the full ranking produced by Evaluate.
type Evaluation struct {
	Base     soc.Config
	Profiles []AppProfile // per-app profiles on Base, in fleet order
	Ranking  []Ranked
}

// Rejection thresholds on an option's worst measured per-app speedup.
const (
	regressionTol = 0.995 // below this a performance option is rejected
	costTol       = 0.97  // below this a cost saver gives up too much
)

// EvalParams tunes the evaluation driver.
type EvalParams struct {
	Iters          uint32 // main-loop iterations per measurement
	Limit          uint64 // cycle budget per run
	ProfileHorizon uint64 // cycles per profiling run
	SkipMeasured   bool   // analytical only (fast)
}

// DefaultEvalParams returns a laptop-scale configuration.
func DefaultEvalParams() EvalParams {
	return EvalParams{
		Iters:          300,
		Limit:          50_000_000,
		ProfileHorizon: 400_000,
	}
}

func geomean(vs []float64) float64 {
	if len(vs) == 0 {
		return 1
	}
	sum := 0.0
	for _, v := range vs {
		if v <= 0 {
			v = 1e-9
		}
		sum += math.Log(v)
	}
	return math.Exp(sum / float64(len(vs)))
}

// Evaluate runs the full methodology: profile every application on the
// base configuration, estimate every option analytically, optionally
// re-simulate for ground truth, and rank by gain/cost. An empty fleet is
// an error: there is nothing to rank on.
func Evaluate(base soc.Config, fleet []workload.Spec, opts []Option, prm EvalParams) (*Evaluation, error) {
	if len(fleet) == 0 {
		return nil, fmt.Errorf("core: empty fleet")
	}
	// Per-app base measurements.
	profiles := make([]AppProfile, len(fleet))
	baseCycles := make([]uint64, len(fleet))
	for i, spec := range fleet {
		ap, err := ProfileApp(base, spec, prm.ProfileHorizon)
		if err != nil {
			return nil, err
		}
		profiles[i] = ap
		if !prm.SkipMeasured {
			cy, _, err := MeasureCycles(base, spec, prm.Iters, prm.Limit)
			if err != nil {
				return nil, err
			}
			baseCycles[i] = cy
		}
	}

	ev := &Evaluation{Base: base, Profiles: profiles}
	for _, opt := range opts {
		r := Ranked{Option: opt}
		var ests, meas []float64
		for i, spec := range fleet {
			ar := AppResult{App: spec.Name, Estimated: opt.Estimate(profiles[i])}
			ests = append(ests, ar.Estimated)
			if !prm.SkipMeasured {
				mutSpec := spec
				if opt.MutateSpec != nil {
					mutSpec = opt.MutateSpec(spec)
				}
				cy, _, err := MeasureCycles(opt.Mutate(base), mutSpec, prm.Iters, prm.Limit)
				if err != nil {
					return nil, err
				}
				ar.Measured = float64(baseCycles[i]) / float64(cy)
				meas = append(meas, ar.Measured)
			}
			r.PerApp = append(r.PerApp, ar)
		}
		r.EstMean = geomean(ests)
		if len(meas) > 0 {
			r.MeaMean, r.MeaMin = geomean(meas), slices.Min(meas)
		}
		mean, _ := r.Gain()
		if opt.CostSaver() {
			// Area saved per percent of mean performance given up; a
			// cost saver that loses nothing is maximally attractive.
			loss := max(1-mean, 0.001)
			r.GainPerArea = -opt.AreaCost / (100 * loss)
			r.Rejected = len(meas) > 0 && r.MeaMin < costTol
		} else {
			r.GainPerArea = (mean - 1) / opt.AreaCost
			r.Rejected = len(meas) > 0 && r.MeaMin < regressionTol
		}
		ev.Ranking = append(ev.Ranking, r)
	}

	sort.Slice(ev.Ranking, func(i, j int) bool {
		a, b := ev.Ranking[i], ev.Ranking[j]
		if a.Rejected != b.Rejected {
			return !a.Rejected // accepted options first
		}
		if a.Option.CostSaver() != b.Option.CostSaver() {
			return !a.Option.CostSaver() // performance options first
		}
		return a.GainPerArea > b.GainPerArea
	})
	return ev, nil
}

// Best returns the highest-ranked accepted performance option, or
// ok=false when every option is rejected. Cost savers are never chosen by
// the F-model (they are a separate business decision).
func (ev *Evaluation) Best() (Ranked, bool) {
	for _, r := range ev.Ranking {
		if !r.Rejected && !r.Option.CostSaver() && r.GainPerArea > 0 {
			return r, true
		}
	}
	return Ranked{}, false
}

// Generation is one step of the F-model: the paper's evolutionary flow in
// which profiles of generation N guide the architecture of generation N+1.
type Generation struct {
	Config soc.Config
	Chosen *Ranked     // option applied to produce the next generation
	Eval   *Evaluation // ranking of this generation; nil if not evaluated
}

// FModel runs gens generations: profile → rank → adopt the best option.
// It returns the chain of generations (the first entry is the base). When
// an adopted option carries a software adaptation (MutateSpec), the fleet
// adopts it for all following generations — the paper's customers "adapt
// [their software] only for new features".
func FModel(base soc.Config, fleet []workload.Spec, opts []Option, prm EvalParams, gens int) ([]Generation, error) {
	chain := []Generation{{Config: base}}
	cfg := base
	cur := append([]workload.Spec(nil), fleet...)
	for g := 0; g < gens; g++ {
		ev, err := Evaluate(cfg, cur, opts, prm)
		if err != nil {
			return chain, err
		}
		chain[len(chain)-1].Eval = ev
		best, ok := ev.Best()
		if !ok {
			break
		}
		cfg = best.Option.Mutate(cfg)
		cfg.Name = fmt.Sprintf("%s+%s", chain[len(chain)-1].Config.Name, best.Option.Name)
		if best.Option.MutateSpec != nil {
			for i := range cur {
				cur[i] = best.Option.MutateSpec(cur[i])
			}
		}
		chain[len(chain)-1].Chosen = &best
		chain = append(chain, Generation{Config: cfg})
	}
	return chain, nil
}
