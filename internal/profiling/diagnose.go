package profiling

import (
	"fmt"
	"math"
	"sort"
)

// Diagnosis explains one degraded time window: which co-measured
// parameters are elevated relative to their run baseline. This implements
// the paper's reason the parameters must be measured *in parallel*: "only
// when having all these data available in parallel it is possible to
// analyze for example the reason for a temporary poor System IPC rate in
// detail (high cache miss rate? Which cache? Which data or code structure?
// High Interrupt load? And so on)."
type Diagnosis struct {
	Window  Sample // the degraded window (of the watch parameter)
	Factors []Factor
}

// Factor is one suspect parameter in a diagnosis.
type Factor struct {
	Param    string
	Baseline float64 // run-wide mean rate
	Observed float64 // rate in the degraded window
	Excess   float64 // Observed − Baseline, in baseline standard deviations
}

// String renders a factor compactly.
func (f Factor) String() string {
	return fmt.Sprintf("%s: %.4f vs baseline %.4f (%+.1fσ)",
		f.Param, f.Observed, f.Baseline, f.Excess)
}

// stddev returns mean and standard deviation of the window rates.
func (se *Series) stats() (mean, sd float64) {
	if len(se.Samples) == 0 {
		return 0, 0
	}
	for _, s := range se.Samples {
		mean += s.Rate()
	}
	mean /= float64(len(se.Samples))
	for _, s := range se.Samples {
		d := s.Rate() - mean
		sd += d * d
	}
	sd = math.Sqrt(sd / float64(len(se.Samples)))
	return mean, sd
}

// at returns the sample of the series whose window covers cycle (the
// latest window ending at or after cycle), or ok=false.
func (se *Series) at(cycle uint64) (Sample, bool) {
	i := sort.Search(len(se.Samples), func(i int) bool {
		return se.Samples[i].Cycle >= cycle
	})
	if i >= len(se.Samples) {
		return Sample{}, false
	}
	return se.Samples[i], true
}

// Diagnose explains the windows of watchParam whose rate is below lo: for
// each degraded window it ranks every other parameter by how many standard
// deviations it sits above its own baseline within that window. It returns
// one diagnosis per degraded window, factors sorted most-suspect first.
func (p *Profile) Diagnose(watchParam string, lo float64) []Diagnosis {
	watch, ok := p.Series[watchParam]
	if !ok {
		return nil
	}
	// Precompute baselines.
	type base struct{ mean, sd float64 }
	bases := make(map[string]base, len(p.Series))
	for name, se := range p.Series {
		m, s := se.stats()
		bases[name] = base{m, s}
	}

	var out []Diagnosis
	for _, w := range watch.Samples {
		if w.Rate() >= lo {
			continue
		}
		if w.Suspect {
			// The window overlaps a trace-loss gap: a low rate here may be
			// an artifact of what vanished around it, not evidence.
			continue
		}
		diag := Diagnosis{Window: w}
		for name, se := range p.Series {
			if name == watchParam {
				continue
			}
			s, ok := se.at(w.Cycle)
			if !ok {
				continue
			}
			b := bases[name]
			sd := b.sd
			if sd < 1e-9 {
				sd = 1e-9
			}
			excess := (s.Rate() - b.mean) / sd
			if s.Suspect {
				// Down-weight evidence from windows touched by trace loss.
				excess /= 2
			}
			if excess > 0.5 { // only meaningfully elevated parameters
				diag.Factors = append(diag.Factors, Factor{
					Param: name, Baseline: b.mean, Observed: s.Rate(), Excess: excess,
				})
			}
		}
		sort.Slice(diag.Factors, func(i, j int) bool {
			if diag.Factors[i].Excess != diag.Factors[j].Excess {
				return diag.Factors[i].Excess > diag.Factors[j].Excess
			}
			return diag.Factors[i].Param < diag.Factors[j].Param
		})
		out = append(out, diag)
	}
	return out
}

// TopSuspects aggregates diagnoses: how often each parameter appears among
// the top k factors of a degraded window, sorted by count. It answers the
// engineer's question across the whole run rather than window by window.
func TopSuspects(diags []Diagnosis, k int) []FuncCost {
	counts := make(map[string]uint64)
	for _, d := range diags {
		n := k
		if n > len(d.Factors) {
			n = len(d.Factors)
		}
		for _, f := range d.Factors[:n] {
			counts[f.Param]++
		}
	}
	return rankCosts(counts)
}
