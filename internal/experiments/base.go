package experiments

import (
	"repro/internal/runcfg"
	"repro/internal/soc"
)

// base is the run configuration every experiment derives its reference
// environment from: the SoC preset the tables are measured on and the
// workload seed of the reference application. The defaults reproduce
// the published tables (TC1797, seed 2024); the experiments driver can
// override them via SetBase to re-run the evaluation on another preset
// or customer variant.
var base = func() runcfg.Run {
	r := runcfg.Default()
	r.Seed = 2024
	return r
}()

// SetBase replaces the experiments' base run configuration. It
// validates through the single runcfg.Validate path; per-experiment
// horizons are fixed, so only the SoC and seed take effect.
func SetBase(r runcfg.Run) error {
	if err := r.Validate(); err != nil {
		return err
	}
	base = r
	return nil
}

// baseCfg resolves the base SoC preset (validated in SetBase, so a
// resolution failure here is a bug).
func baseCfg() soc.Config {
	cfg, err := base.SoCConfig()
	if err != nil {
		panic(err)
	}
	return cfg
}

// Experiment is one table of the evaluation: its id and its driver.
type Experiment struct {
	ID  string
	Run func() *Table
}

// All lists every experiment in print order. quick selects the smaller
// fleets of E6 and F1; the other drivers have one configuration.
func All(quick bool) []Experiment {
	return []Experiment{
		{"E1", E1RateSemantics},
		{"E2", E2IPCTimeline},
		{"E3", E3Bandwidth},
		{"E4", E4Cascade},
		{"E5", E5Intrusiveness},
		{"E6", func() *Table { return E6OptionRanking(quick) }},
		{"E7", E7FlashLever},
		{"E8", E8CycleTrace},
		{"E9", E9Multicore},
		{"E10", E10FaultRecovery},
		{"F1", func() *Table { return F1FModel(quick) }},
		{"A1", A1RateBasis},
		{"A2", A2Compression},
		{"A3", A3FlashArbitration},
		{"A4", A4TraceBufferSizing},
	}
}
