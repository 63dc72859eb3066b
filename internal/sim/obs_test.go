package sim

import (
	"fmt"
	"testing"

	"repro/internal/obs"
)

// counterTicker is a minimal ticker with a deterministic cost, standing in
// for a SoC component in clock-instrumentation tests and benchmarks.
type counterTicker struct{ n uint64 }

func (t *counterTicker) Tick(uint64) { t.n++ }

func TestClockInstrument(t *testing.T) {
	reg := obs.New()
	c := NewClock()
	a, b := &counterTicker{}, &counterTicker{}
	c.Attach("cpu", a)
	c.Instrument(reg, 4)
	c.Attach("dap", b) // attach after Instrument must also be profiled
	c.Run(1000)

	s := reg.Snapshot()
	if v, _ := s.Counter("sim.cycles"); v != 1000 {
		t.Errorf("sim.cycles = %d, want 1000", v)
	}
	if v, _ := s.Counter("sim.sampled_cycles"); v != 250 {
		t.Errorf("sim.sampled_cycles = %d, want 250", v)
	}
	if v, ok := s.Gauge("sim.cycles_per_sec"); !ok || v <= 0 {
		t.Errorf("sim.cycles_per_sec = %v,%v", v, ok)
	}
	for _, name := range []string{"sim.ticker.cpu.sampled_ns", "sim.ticker.dap.sampled_ns"} {
		if _, ok := s.Counter(name); !ok {
			t.Errorf("missing %s", name)
		}
	}
	if a.n != 1000 || b.n != 1000 {
		t.Errorf("instrumentation changed ticker behaviour: %d/%d", a.n, b.n)
	}

	// RunToStop episodes are accounted too.
	c.RunToStop(100)
	if v := reg.Counter("sim.cycles").Value(); v != 1100 {
		t.Errorf("sim.cycles after RunToStop = %d, want 1100", v)
	}
}

func TestClockInstrumentDisabledIsIdentical(t *testing.T) {
	run := func(reg *obs.Registry) uint64 {
		c := NewClock()
		tk := &counterTicker{}
		c.Attach("t", tk)
		c.Instrument(reg, 0)
		c.Run(5000)
		return tk.n
	}
	if a, b := run(obs.Disabled), run(obs.New()); a != b {
		t.Errorf("instrumented run diverged: %d vs %d ticks", a, b)
	}
}

// BenchmarkClockDisabled and BenchmarkClockInstrumented measure the
// observability overhead on the simulator's hottest loop (one Step per
// CPU cycle with a handful of tickers). The acceptance bar for this repo
// is instrumented ≤ 1.05× disabled.
func benchClock(b *testing.B, reg *obs.Registry) {
	c := NewClock()
	for i := 0; i < 6; i++ {
		c.Attach("t", &counterTicker{})
	}
	c.Instrument(reg, 0)
	b.ResetTimer()
	c.Run(uint64(b.N))
	if c.Cycle() != uint64(b.N) {
		b.Fatal("cycle mismatch")
	}
}

func BenchmarkClockDisabled(b *testing.B)     { benchClock(b, obs.Disabled) }
func BenchmarkClockInstrumented(b *testing.B) { benchClock(b, obs.New()) }

// TestInstrumentedSoloRunKeepsCadence: an instrumented clock runs a lone
// due ticker solo between its timed cycles, and the timing cadence and
// every delivered Tick stay what per-cycle stepping gives.
func TestInstrumentedSoloRunKeepsCadence(t *testing.T) {
	run := func(reg *obs.Registry) (cpu, sparse *periodic) {
		c := NewClock()
		cpu = &periodic{period: 1, enabled: true}
		sparse = &periodic{period: 37, offset: 5, enabled: true}
		c.Attach("cpu", cpu)
		c.Attach("sparse", sparse)
		c.Instrument(reg, 4)
		c.Run(1000)
		return cpu, sparse
	}
	reg := obs.New()
	cpu, sparse := run(reg)
	refCPU, refSparse := run(nil)
	if v := reg.Counter("sim.sampled_cycles").Value(); v != 250 {
		t.Errorf("sim.sampled_cycles = %d, want 250", v)
	}
	if cpu.ticks != refCPU.ticks || sparse.ticks != refSparse.ticks ||
		fmt.Sprint(sparse.fired) != fmt.Sprint(refSparse.fired) {
		t.Errorf("instrumented: cpu %d ticks, sparse fired %v; uninstrumented: cpu %d ticks, sparse fired %v",
			cpu.ticks, sparse.fired, refCPU.ticks, refSparse.fired)
	}
}
