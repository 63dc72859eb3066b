// Package core implements the paper's system performance optimization
// methodology (Sections 4 and 6): statistical application profiles,
// gathered non-intrusively from many customer applications with the
// Emulation Device, feed an analytical model that quantifies the
// performance improvement of candidate SoC architecture options; options
// are then ranked by their performance-gain / cost ratio, under the
// constraint that no use case may regress ("improve on identified or
// expected bottle necks without negative side effects for other possible
// use cases").
//
// Two evaluation paths exist for every option:
//
//   - Analytical: the paper's approach — estimate the speedup from the
//     measured event rates and stall decomposition alone (the future
//     silicon does not exist yet).
//   - Re-simulation: ground truth in this reproduction — apply the option
//     to the SoC configuration and re-run the identical application for
//     the same amount of work.
//
// Comparing the two quantifies how well the analytical methodology
// predicts real gains (experiment E6).
package core

import (
	"fmt"

	"repro/internal/profiling"
	"repro/internal/soc"
)

// AppProfile condenses one application's measured profile plus the
// configuration it was measured on — the per-customer statistical record
// the SoC architect aggregates.
type AppProfile struct {
	App    string
	Cycles uint64
	Instr  uint64

	// CPI is cycles per instruction (the reciprocal of the paper's IPC).
	CPI float64

	// Rates are the per-basis event rates from the profiling session
	// (per instruction unless the parameter is cycle-based).
	Rates map[string]float64

	// FlashWS is the flash wait-state setting the profile was measured
	// with (the analytical model's miss penalty).
	FlashWS uint64
}

// FromProfile condenses a profiling result measured on cfg.
func FromProfile(p *profiling.Profile, cfg soc.Config) AppProfile {
	ap := AppProfile{
		App:    p.App,
		Cycles: p.Cycles,
		Instr:  p.Instr,
		Rates:  make(map[string]float64),
	}
	if p.Instr > 0 {
		ap.CPI = float64(p.Cycles) / float64(p.Instr)
	}
	for name, se := range p.Series {
		ap.Rates[name] = se.Mean()
	}
	ap.FlashWS = cfg.Flash.WaitStates
	return ap
}

// rate returns a named rate (0 when the parameter was not measured).
func (ap AppProfile) rate(name string) float64 { return ap.Rates[name] }

// The analytical model's features (Option.terms), each in cycles or
// events per instruction. stallFetchPI and stallDataPI turn the per-cycle
// stall fractions into stall cycles per instruction, the CPI stack's
// unit. icacheMissPI and dflashReadPI charge each I-cache miss and data
// flash read the flash penalty: the array wait states plus 2 cycles of
// bus and transfer overhead. stallPerWS is the flash-bound stall per wait
// state, 0 at one wait state or less, where there is none to remove.
func (ap AppProfile) stallFetchPI() float64     { return ap.rate("stall_fetch") * ap.CPI }
func (ap AppProfile) stallDataPI() float64      { return ap.rate("stall_data") * ap.CPI }
func (ap AppProfile) flashMissPenalty() float64 { return float64(ap.FlashWS) + 2 }
func (ap AppProfile) icacheMissPI() float64     { return ap.rate("icache_miss") * ap.flashMissPenalty() }
func (ap AppProfile) dflashReadPI() float64     { return ap.rate("dflash_read") * ap.flashMissPenalty() }
func (ap AppProfile) dsramPI() float64          { return ap.rate("dsram_access") }
func (ap AppProfile) iflashWSPI() float64       { return ap.rate("iflash_access") * float64(ap.FlashWS) }
func (ap AppProfile) portConflictPI() float64   { return ap.rate("flash_port_conflict") }
func (ap AppProfile) stallPerWS() float64 {
	if ap.FlashWS <= 1 {
		return 0
	}
	return (ap.stallFetchPI() + ap.stallDataPI()) * (1 / float64(ap.FlashWS))
}

// String summarizes the profile.
func (ap AppProfile) String() string {
	return fmt.Sprintf("%s: CPI=%.2f imiss=%.4f dflash=%.4f stallF=%.2f stallD=%.2f",
		ap.App, ap.CPI, ap.rate("icache_miss"), ap.rate("dflash_read"),
		ap.rate("stall_fetch"), ap.rate("stall_data"))
}
