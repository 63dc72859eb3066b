package core

import (
	"testing"

	"repro/internal/sim"
	"repro/internal/soc"
	"repro/internal/workload"
)

// stepUntilIters is the per-cycle reference MeasureCycles' register watch
// replaces: check the iteration count at every cycle boundary, Step
// otherwise.
func stepUntilIters(s *soc.SoC, iters uint32, limit uint64) (uint64, bool) {
	for n := uint64(0); n < limit; n++ {
		if s.CPU.Reg(workload.IterReg) >= iters {
			return n, true
		}
		s.Clock.Step()
	}
	return limit, s.CPU.Reg(workload.IterReg) >= iters
}

// TestMeasureCyclesMatchesPerCycleReference re-simulates a six-app fleet
// on the base configuration and every catalog option, for the structure
// seed the benchmarks use and a held-out one: the stop-watch run must end
// on the reference's cycle with the same CPU and flash event counts.
func TestMeasureCyclesMatchesPerCycleReference(t *testing.T) {
	const iters, limit = 120, 50_000_000
	base := soc.TC1797()
	type variant struct {
		name   string
		cfg    soc.Config
		mutate func(workload.Spec) workload.Spec
	}
	variants := []variant{{name: "base", cfg: base}}
	for _, opt := range Catalog() {
		variants = append(variants, variant{opt.Name, opt.Mutate(base), opt.MutateSpec})
	}
	for _, seed := range []uint64{1, 7919} {
		for _, spec := range workload.Fleet(6, seed) {
			for _, v := range variants {
				sp := spec
				if v.mutate != nil {
					sp = v.mutate(sp)
				}
				cy, app, err := MeasureCycles(v.cfg, sp, iters, limit)
				if err != nil {
					t.Fatalf("seed %d %s/%s: %v", seed, spec.Name, v.name, err)
				}
				ref := soc.New(v.cfg, sp.Seed)
				if _, err := workload.Build(ref, sp); err != nil {
					t.Fatal(err)
				}
				refCy, ok := stepUntilIters(ref, iters, limit)
				if !ok {
					t.Fatalf("seed %d %s/%s: reference did not reach %d iterations", seed, spec.Name, v.name, iters)
				}
				got := [2]sim.Counters{*app.SoC.CPU.Counters(), *app.SoC.Flash.Counters()}
				want := [2]sim.Counters{*ref.CPU.Counters(), *ref.Flash.Counters()}
				if cy != refCy || got != want {
					t.Fatalf("seed %d %s/%s: watch ran %d cycles, reference %d; CPU counters equal %v, flash counters equal %v",
						seed, spec.Name, v.name, cy, refCy, got[0] == want[0], got[1] == want[1])
				}
			}
		}
	}
}
