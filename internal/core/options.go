package core

import (
	"repro/internal/cache"
	"repro/internal/soc"
	"repro/internal/workload"
)

// Option is one candidate SoC architecture improvement: a configuration
// mutation with an area cost and an analytical gain estimator operating on
// measured application profiles.
type Option struct {
	Name string
	Desc string

	// AreaCost is the silicon cost in relative area units (mm²-like).
	// Cost-reduction options carry a negative AreaCost (area saved) and
	// set CostSaver.
	AreaCost float64

	// CostSaver marks options whose purpose is silicon cost reduction;
	// they are ranked by area saved per percent of performance given up,
	// and rejected when any use case loses more than the cost tolerance.
	CostSaver bool

	// Mutate applies the option to a SoC configuration (for the
	// re-simulation path and for building the next generation).
	Mutate func(soc.Config) soc.Config

	// MutateSpec optionally adapts the customer application to exploit
	// the option (the paper's customers "adapt [software] only for new
	// features"); nil leaves the software unchanged.
	MutateSpec func(workload.Spec) workload.Spec

	// Estimate returns the analytically predicted speedup factor (≥ 1)
	// for one application profile.
	Estimate func(AppProfile) float64
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
				if c.ICache == nil {
					c.ICache = &cache.Config{Size: 8 << 10, LineBytes: 32, Ways: 2}
				} else {
					ic := *c.ICache
					ic.Size *= 2
					c.ICache = &ic
				}
				return c
			},
			// Rule-of-thumb √2 miss reduction for a size doubling; each
			// avoided miss saves the flash penalty.
			Estimate: func(ap AppProfile) float64 {
				saved := ap.rate("icache_miss") * ap.flashMissPenalty() * 0.3
				return ap.speedupFromSavedCPI(saved)
			},
		},
		{
			Name:     "dcache-2x",
			Desc:     "double (or add) the data cache",
			AreaCost: 0.9,
			Mutate: func(c soc.Config) soc.Config {
				if c.DCache == nil {
					c.DCache = &cache.Config{Size: 4 << 10, LineBytes: 32, Ways: 2}
				} else {
					dc := *c.DCache
					dc.Size *= 2
					c.DCache = &dc
				}
				return c
			},
			Estimate: func(ap AppProfile) float64 {
				// Half of the data flash reads become hits.
				saved := ap.rate("dflash_read") * ap.flashMissPenalty() * 0.5
				return ap.speedupFromSavedCPI(saved)
			},
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
			Estimate: func(ap AppProfile) float64 {
				if ap.FlashWS <= 1 {
					return 1
				}
				frac := 1 / float64(ap.FlashWS)
				saved := (ap.stallFetchPI() + ap.stallDataPI()) * frac * 0.8
				return ap.speedupFromSavedCPI(saved)
			},
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
			Estimate: func(ap AppProfile) float64 {
				saved := ap.stallFetchPI()*0.12 + ap.rate("dflash_read")*ap.flashMissPenalty()*0.15
				return ap.speedupFromSavedCPI(saved)
			},
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
			Estimate: func(ap AppProfile) float64 {
				// Table reads move from flash to single-cycle scratchpad.
				saved := ap.rate("dflash_read") * ap.flashMissPenalty() * 0.9
				return ap.speedupFromSavedCPI(saved)
			},
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
			Estimate: func(ap AppProfile) float64 {
				return ap.speedupFromSavedCPI(ap.rate("dsram_access") * 1)
			},
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
			Estimate: func(ap AppProfile) float64 {
				lost := ap.rate("iflash_access") * float64(ap.FlashWS) * 0.3
				newCPI := ap.CPI + lost
				return ap.CPI / newCPI
			},
		},
		{
			Name:      "icache-half",
			Desc:      "halve the instruction cache (cost reduction)",
			AreaCost:  -0.6,
			CostSaver: true,
			Mutate: func(c soc.Config) soc.Config {
				if c.ICache != nil && c.ICache.Size > 4<<10 {
					ic := *c.ICache
					ic.Size /= 2
					c.ICache = &ic
				}
				return c
			},
			Estimate: func(ap AppProfile) float64 {
				lost := ap.rate("icache_miss") * ap.flashMissPenalty() * 0.4
				return ap.CPI / (ap.CPI + lost)
			},
		},
		{
			Name:      "flash-buffers-min",
			Desc:      "single line buffer per flash port (cost reduction)",
			AreaCost:  -0.15,
			CostSaver: true,
			Mutate: func(c soc.Config) soc.Config {
				c.Flash.CodeBuffers = 1
				c.Flash.DataBuffers = 1
				return c
			},
			Estimate: func(ap AppProfile) float64 {
				lost := ap.stallFetchPI() * 0.1
				return ap.CPI / (ap.CPI + lost)
			},
		},
		{
			Name:     "flash-arb-fcfs",
			Desc:     "replace code-priority flash arbitration with FCFS (ablation)",
			AreaCost: 0.05,
			Mutate: func(c soc.Config) soc.Config {
				c.Flash.Policy = 0 // flash.ArbFCFS
				return c
			},
			Estimate: func(ap AppProfile) float64 {
				lost := ap.rate("flash_port_conflict") * 1.5
				return ap.CPI / (ap.CPI + lost)
			},
		},
	}
}
