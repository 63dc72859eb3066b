package core

import (
	"repro/internal/cache"
	"repro/internal/flash"
	"repro/internal/soc"
	"repro/internal/workload"
)

// Option is one candidate SoC architecture improvement: a configuration
// mutation with an area cost and an analytical gain estimate over
// measured application profiles.
type Option struct {
	Name string
	Desc string

	// AreaCost is the silicon cost in relative area units (mm²-like).
	// Cost-reduction options carry a negative AreaCost (area saved).
	AreaCost float64

	// Mutate applies the option to a SoC configuration (for the
	// re-simulation path and for building the next generation).
	Mutate func(soc.Config) soc.Config

	// MutateSpec optionally adapts the customer application to exploit
	// the option (the paper's customers "adapt [software] only for new
	// features"); nil leaves the software unchanged.
	MutateSpec func(workload.Spec) workload.Spec

	// terms is the analytical model: CPI cycles saved per instruction
	// are Σ feature × coef, and a negative sum is a loss.
	terms []term
}

// term is one summand of an option's analytical model: a profile feature
// (an AppProfile method) scaled by a coefficient.
type term struct {
	feature func(AppProfile) float64
	coef    float64
}

// CostSaver reports whether the option's purpose is silicon cost
// reduction (it saves area). Cost savers are ranked by area saved per
// percent of performance given up, and rejected when any use case loses
// more than the cost tolerance.
func (o Option) CostSaver() bool { return o.AreaCost < 0 }

// Estimate returns the analytically predicted speedup factor for one
// application profile, CPI / (CPI − saved) with saved = Σ feature ×
// coef. A gain never removes more than the measured stall share, nor
// brings CPI below 1/3 (the core issues at most three instructions a
// cycle); a loss (saved < 0) is not clamped.
func (o Option) Estimate(ap AppProfile) float64 {
	var saved float64
	for _, t := range o.terms {
		saved += t.feature(ap) * t.coef
	}
	if saved < 0 {
		return ap.CPI / (ap.CPI - saved)
	}
	saved = min(saved, ap.rate("stall_any")*ap.CPI)
	return ap.CPI / max(ap.CPI-saved, 1.0/3)
}

// Catalog returns the option catalog evaluated in the paper-style ranking
// (experiment E6). Costs are relative area units; the analytical models
// are deliberately simple first-order CPI-stack arguments — exactly the
// kind of estimate an architect can defend from rate measurements alone.
func Catalog() []Option {
	return []Option{
		{
			Name:     "icache-2x",
			Desc:     "double the instruction cache",
			AreaCost: 1.2,
			Mutate: func(c soc.Config) soc.Config {
				c.ICache = doubled(c.ICache, 8<<10)
				return c
			},
			// Rule-of-thumb √2 miss reduction for a size doubling; each
			// avoided miss saves the flash penalty.
			terms: []term{{AppProfile.icacheMissPI, 0.3}},
		},
		{
			Name:     "dcache-2x",
			Desc:     "double (or add) the data cache",
			AreaCost: 0.9,
			Mutate: func(c soc.Config) soc.Config {
				c.DCache = doubled(c.DCache, 4<<10)
				return c
			},
			// Half of the data flash reads become hits.
			terms: []term{{AppProfile.dflashReadPI, 0.5}},
		},
		{
			Name:     "flash-ws-1",
			Desc:     "one wait state less on the flash array",
			AreaCost: 2.5,
			Mutate: func(c soc.Config) soc.Config {
				if c.Flash.WaitStates > 1 {
					c.Flash.WaitStates--
				}
				return c
			},
			// Flash-bound stalls shrink proportionally to the array time.
			terms: []term{{AppProfile.stallPerWS, 0.8}},
		},
		{
			Name:     "flash-buffers-2x",
			Desc:     "double the flash read/prefetch line buffers per port",
			AreaCost: 0.3,
			Mutate: func(c soc.Config) soc.Config {
				c.Flash.CodeBuffers *= 2
				c.Flash.DataBuffers *= 2
				return c
			},
			terms: []term{{AppProfile.stallFetchPI, 0.12}, {AppProfile.dflashReadPI, 0.15}},
		},
		{
			Name:     "dspr-2x",
			Desc:     "double the data scratchpad (customers remap hot tables)",
			AreaCost: 1.0,
			Mutate: func(c soc.Config) soc.Config {
				c.DSPRSize *= 2
				return c
			},
			MutateSpec: func(sp workload.Spec) workload.Spec {
				sp.TablesInScratch = true
				return sp
			},
			// Table reads move from flash to single-cycle scratchpad.
			terms: []term{{AppProfile.dflashReadPI, 0.9}},
		},
		{
			Name:     "sram-1cycle",
			Desc:     "reduce LMU SRAM latency by one cycle",
			AreaCost: 0.5,
			Mutate: func(c soc.Config) soc.Config {
				if c.SRAMLatency > 0 {
					c.SRAMLatency--
				}
				return c
			},
			terms: []term{{AppProfile.dsramPI, 1}},
		},
		{
			Name:     "prefetch-off",
			Desc:     "remove the code-port sequential prefetcher (ablation control)",
			AreaCost: 0.05,
			Mutate: func(c soc.Config) soc.Config {
				c.Flash.Prefetch = false
				return c
			},
			// The analytical model predicts a loss: negative saved cycles.
			terms: []term{{AppProfile.iflashWSPI, -0.3}},
		},
		{
			Name:     "icache-half",
			Desc:     "halve the instruction cache (cost reduction)",
			AreaCost: -0.6,
			Mutate: func(c soc.Config) soc.Config {
				if c.ICache != nil && c.ICache.Size > 4<<10 {
					ic := *c.ICache
					ic.Size /= 2
					c.ICache = &ic
				}
				return c
			},
			terms: []term{{AppProfile.icacheMissPI, -0.4}},
		},
		{
			Name:     "flash-buffers-min",
			Desc:     "single line buffer per flash port (cost reduction)",
			AreaCost: -0.15,
			Mutate: func(c soc.Config) soc.Config {
				c.Flash.CodeBuffers = 1
				c.Flash.DataBuffers = 1
				return c
			},
			terms: []term{{AppProfile.stallFetchPI, -0.1}},
		},
		{
			Name:     "flash-arb-fcfs",
			Desc:     "replace code-priority flash arbitration with FCFS (ablation)",
			AreaCost: 0.05,
			Mutate: func(c soc.Config) soc.Config {
				c.Flash.Policy = flash.ArbFCFS
				return c
			},
			terms: []term{{AppProfile.portConflictPI, -1.5}},
		},
	}
}

// doubled returns a copy of cc at twice its size, or a 2-way cache of
// size bytes with 32-byte lines when there is none.
func doubled(cc *cache.Config, size uint32) *cache.Config {
	c := cache.Config{Size: size, LineBytes: 32, Ways: 2}
	if cc != nil {
		c = *cc
		c.Size *= 2
	}
	return &c
}
