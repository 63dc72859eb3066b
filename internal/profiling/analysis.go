package profiling

import (
	"sort"

	"repro/internal/isa"
	"repro/internal/mcds"
	"repro/internal/tmsg"
)

// ExternalSamplingBytes models the conventional tool approach the paper
// contrasts with rate messages: "sampling by the external tool at least two
// long counters (executed instructions, measured event, etc.)". Each sample
// of each parameter costs two register reads over the debug link; a DAP
// register read moves a command byte, a 32-bit address and 32-bit data.
func ExternalSamplingBytes(nParams int, windows uint64) uint64 {
	const bytesPerRead = 1 + 4 + 4
	return windows * uint64(nParams) * 2 * bytesPerRead
}

// HitRatePct applies the paper's worked-example convention for deriving a
// cache hit percentage from a miss-rate window: "4 instruction cache
// misses during the last 100 executed instructions respond to an
// instruction cache hit rate of 96%" — i.e. 100 − misses-per-100-
// instructions.
func HitRatePct(s Sample) float64 {
	if s.Basis == 0 {
		return 100
	}
	return 100 - 100*float64(s.Count)/float64(s.Basis)
}

// HotWindows returns the sample windows of the named parameter whose rate
// is below lo (for IPC-style parameters) — the "interesting spaces of time
// where the system performance is not optimal" the engineer drills into.
func (p *Profile) HotWindows(name string, lo float64) []Sample {
	se, ok := p.Series[name]
	if !ok {
		return nil
	}
	var out []Sample
	for _, s := range se.Samples {
		if s.Rate() < lo {
			out = append(out, s)
		}
	}
	return out
}

// FuncCost is the instruction count attributed to one function.
type FuncCost struct {
	Name  string
	Instr uint64
}

// FunctionProfile attributes reconstructed program-trace instructions to
// the symbols of prog ("System Profiling is the analysis of the
// application software on function level"). It returns functions sorted by
// descending cost.
func FunctionProfile(msgs []tmsg.Msg, src uint8, prog *isa.Program) []FuncCost {
	pcs := mcds.Reconstruct(msgs, src)
	counts := make(map[string]uint64)
	for _, pc := range pcs {
		counts[prog.SymbolAt(pc)]++
	}
	out := make([]FuncCost, 0, len(counts))
	for name, n := range counts {
		out = append(out, FuncCost{Name: name, Instr: n})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Instr != out[j].Instr {
			return out[i].Instr > out[j].Instr
		}
		return out[i].Name < out[j].Name
	})
	return out
}
