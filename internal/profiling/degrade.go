package profiling

import (
	"repro/internal/emem"
	"repro/internal/mcds"
)

// DegradePolicy tunes the graceful-degradation controller. Zero fields
// select the defaults.
type DegradePolicy struct {
	// Hi and Lo are EMEM trace-ring fill watermarks as fractions of
	// capacity. Crossing Hi widens the measurement resolution (halving the
	// message rate); receding below Lo restores one step.
	Hi, Lo float64
	// MaxFactor caps the widening (a power of two; 16 = resolution may
	// grow 16×, message rate shrink 16×).
	MaxFactor uint64
	// Period is the evaluation interval in cycles: reaction latency versus
	// control stability.
	Period uint64
}

// Degradation defaults: react at three-quarters full, recover below a
// third, never widen beyond 16×, re-evaluate every 256 cycles.
const (
	DefaultDegradeHi        = 0.75
	DefaultDegradeLo        = 0.30
	DefaultDegradeMaxFactor = 16
	DefaultDegradePeriod    = 256
)

func (p DegradePolicy) withDefaults() DegradePolicy {
	if p.Hi == 0 {
		p.Hi = DefaultDegradeHi
	}
	if p.Lo == 0 {
		p.Lo = DefaultDegradeLo
	}
	if p.MaxFactor == 0 {
		p.MaxFactor = DefaultDegradeMaxFactor
	}
	if p.Period == 0 {
		p.Period = DefaultDegradePeriod
	}
	return p
}

// Degrader trades measurement resolution for trace bandwidth when the
// buffer path saturates: instead of losing messages (holes in every
// series at the most interesting moments), the session emits coarser
// windows that remain exact — each rate message carries the basis it was
// actually measured over, so widened samples need no tool-side rescaling.
// The controller is the graceful-degradation half of the hardened
// pipeline; the frame layer handles the losses it cannot prevent.
type Degrader struct {
	policy   DegradePolicy
	emem     *emem.EMEM
	counters []*mcds.Counter
	base     []uint64 // configured resolutions (factor 1)
	factor   uint64
	next     uint64 // next evaluation cycle

	// Statistics.
	Widenings      uint64
	Restores       uint64
	CyclesDegraded uint64 // cycles spent above factor 1
	MaxFactorSeen  uint64
}

func newDegrader(p DegradePolicy, e *emem.EMEM, counters []*mcds.Counter) *Degrader {
	d := &Degrader{policy: p.withDefaults(), emem: e, counters: counters,
		factor: 1, MaxFactorSeen: 1}
	for _, c := range counters {
		d.base = append(d.base, c.Resolution)
	}
	return d
}

// Tick implements sim.Ticker.
func (d *Degrader) Tick(cycle uint64) {
	if d.factor > 1 {
		d.CyclesDegraded++
	}
	if cycle < d.next {
		return
	}
	d.next = cycle + d.policy.Period
	fill := float64(d.emem.Level()) / float64(d.emem.TraceCapacity())
	switch {
	case fill >= d.policy.Hi && d.factor < d.policy.MaxFactor:
		d.factor *= 2
		d.Widenings++
		if d.factor > d.MaxFactorSeen {
			d.MaxFactorSeen = d.factor
		}
		d.apply()
	case fill <= d.policy.Lo && d.factor > 1:
		d.factor /= 2
		d.Restores++
		d.apply()
	}
}

func (d *Degrader) apply() {
	for i, c := range d.counters {
		c.SetResolution(d.base[i] * d.factor)
	}
}
