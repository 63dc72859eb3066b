package profiling

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"sort"
	"sync"
)

// Fleet aggregation: the paper's end goal is not one measurement but
// "statistical system profiles" aggregated from many customer runs,
// feeding the F-model architecture decisions. Accumulator turns a set
// of machine-readable run reports into that fleet-level profile:
// per-parameter distributions across runs, confidence-weighted so lossy
// runs influence the result less, with statistical outliers flagged for
// the engineer instead of silently averaged away.

// FleetRun is one ingested run with its aggregation weight.
type FleetRun struct {
	ID         string  `json:"id"`
	App        string  `json:"app"`
	SoC        string  `json:"soc"`
	Seed       uint64  `json:"seed"`
	FaultPlan  string  `json:"fault_plan,omitempty"`
	Cycles     uint64  `json:"cycles"`
	Confidence float64 `json:"confidence"`
	// Weight is the run's share in every weighted statistic: its
	// confidence, i.e. clean runs weigh 1, lossy runs visibly less.
	Weight float64 `json:"weight"`
}

// FleetParam is the cross-run distribution of one parameter.
type FleetParam struct {
	Param string `json:"param"`
	Runs  int    `json:"runs"`
	// WeightedMean is the confidence-weighted mean of the run means: each
	// run contributes weight run.Weight × param.Confidence.
	WeightedMean float64 `json:"weighted_mean"`
	// Unweighted distribution of run means.
	Mean   float64 `json:"mean"`
	Min    float64 `json:"min"`
	Max    float64 `json:"max"`
	P50    float64 `json:"p50"`
	P95    float64 `json:"p95"`
	Stddev float64 `json:"stddev"` // weighted, around WeightedMean
	// Outliers lists run IDs whose mean deviates from the fleet median by
	// more than 5 scaled median-absolute-deviations (≥4 runs). MAD-based
	// detection is robust: an extreme run cannot inflate the spread
	// estimate and thereby mask itself, as it would with a stddev test.
	Outliers []string `json:"outliers,omitempty"`
}

// FleetProfile is the aggregated view over a set of run reports.
type FleetProfile struct {
	Schema int          `json:"schema_version"`
	Runs   []FleetRun   `json:"runs"`
	Params []FleetParam `json:"params"`
}

// WriteJSON writes the profile in its canonical encoding: indented
// JSON with runs sorted by ID and params by name (the order Finalize
// establishes). Two profiles over the same reports are byte-identical
// regardless of how the reports arrived.
func (fp *FleetProfile) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(fp)
}

// obsRun is one run's contribution to one parameter's fleet distribution.
type obsRun struct {
	id     string
	weight float64
	stats  ParamStats
}

// Accumulator ingests run reports one at a time and produces the fleet
// profile on demand. A campaign's
// worker pool streams each completed report in as it lands (any order,
// any thread) and only the per-parameter summary statistics are retained;
// the heavy parts of a report (per-window series were never included,
// observability snapshots are dropped) do not accumulate.
//
// Finalize canonicalizes: runs and parameters are sorted by ID and name,
// and every statistic folds over that sorted order — so the result is
// byte-identical for any arrival order and therefore for any worker count
// or scheduling.
type Accumulator struct {
	mu      sync.Mutex
	runs    []FleetRun
	byParam map[string][]obsRun
}

// NewAccumulator returns an empty accumulator.
func NewAccumulator() *Accumulator {
	return &Accumulator{byParam: map[string][]obsRun{}}
}

// Add ingests one run report under the given ID (empty: synthesized from
// app/seed/fault plan). Safe for concurrent use.
func (a *Accumulator) Add(id string, r *RunReport) {
	if id == "" {
		id = fmt.Sprintf("%s-seed%d", r.App, r.Seed)
		if r.FaultPlan != "" {
			id += "-" + r.FaultPlan
		}
	}
	w := r.Confidence
	if w < 0 {
		w = 0
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	a.runs = append(a.runs, FleetRun{
		ID: id, App: r.App, SoC: r.SoC, Seed: r.Seed,
		FaultPlan: r.FaultPlan, Cycles: r.Cycles,
		Confidence: r.Confidence, Weight: w,
	})
	for name, ps := range r.Params {
		a.byParam[name] = append(a.byParam[name], obsRun{id: id, weight: w * ps.Confidence, stats: ps})
	}
}

// Len reports how many runs have been ingested.
func (a *Accumulator) Len() int {
	a.mu.Lock()
	defer a.mu.Unlock()
	return len(a.runs)
}

// Finalize assembles the canonical fleet profile from everything ingested
// so far (a canceled campaign flushes its partial aggregate this way). It
// errors when nothing was ingested. The accumulator may keep ingesting
// afterwards; each call re-canonicalizes from scratch.
func (a *Accumulator) Finalize() (*FleetProfile, error) {
	a.mu.Lock()
	defer a.mu.Unlock()
	if len(a.runs) == 0 {
		return nil, fmt.Errorf("fleet: no run reports")
	}
	fp := &FleetProfile{Schema: ReportSchemaVersion}
	fp.Runs = append(fp.Runs, a.runs...)
	sort.Slice(fp.Runs, func(i, j int) bool { return fp.Runs[i].ID < fp.Runs[j].ID })

	names := make([]string, 0, len(a.byParam))
	for name := range a.byParam {
		names = append(names, name)
	}
	sort.Strings(names)

	for _, name := range names {
		runs := append([]obsRun(nil), a.byParam[name]...)
		sort.Slice(runs, func(i, j int) bool { return runs[i].id < runs[j].id })
		p := FleetParam{Param: name, Runs: len(runs), Min: math.Inf(1), Max: math.Inf(-1)}

		var wsum, wmean float64
		means := make([]float64, 0, len(runs))
		for _, or := range runs {
			m := or.stats.Mean
			means = append(means, m)
			wsum += or.weight
			wmean += or.weight * m
			p.Mean += m
			if or.stats.Min < p.Min {
				p.Min = or.stats.Min
			}
			if or.stats.Max > p.Max {
				p.Max = or.stats.Max
			}
		}
		p.Mean /= float64(len(runs))
		if wsum > 0 {
			p.WeightedMean = wmean / wsum
		} else {
			p.WeightedMean = p.Mean // all weights zero: fall back unweighted
		}

		sort.Float64s(means)
		p.P50 = quantile(means, 0.50)
		p.P95 = quantile(means, 0.95)

		var wvar float64
		for _, or := range runs {
			d := or.stats.Mean - p.WeightedMean
			wvar += or.weight * d * d
		}
		if wsum > 0 {
			p.Stddev = math.Sqrt(wvar / wsum)
		}

		if len(runs) >= 4 {
			med := quantile(means, 0.50)
			devs := make([]float64, len(means))
			for i, m := range means {
				devs[i] = math.Abs(m - med)
			}
			sort.Float64s(devs)
			// 1.4826 scales MAD to the stddev of a normal distribution.
			if mad := 1.4826 * quantile(devs, 0.50); mad > 0 {
				for _, or := range runs {
					if math.Abs(or.stats.Mean-med) > 5*mad {
						p.Outliers = append(p.Outliers, or.id)
					}
				}
			}
		}
		fp.Params = append(fp.Params, p)
	}
	return fp, nil
}

// quantile returns the q-quantile of sorted values by nearest rank.
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	rank := int(q * float64(len(sorted)))
	if rank >= len(sorted) {
		rank = len(sorted) - 1
	}
	return sorted[rank]
}
