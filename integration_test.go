package repro_test

import (
	"context"
	"testing"

	"repro/internal/profiling"
	"repro/internal/soc"
	"repro/internal/workload"
)

// TestQuickstartWorkflow is the README quickstart, end to end: build an
// Emulation Device, run a customer application, measure everything in
// parallel through the MCDS, drain over the DAP, read the profile.
func TestQuickstartWorkflow(t *testing.T) {
	s := soc.New(soc.TC1797().WithED(), 42)
	app, err := workload.Build(s, workload.Spec{
		Name: "quickstart", Seed: 42,
		CodeKB: 16, TableKB: 16, FilterTaps: 12, DiagBranches: 8,
		ADCPeriod: 2500, TimerPeriod: 9000, CANMeanGap: 5000,
	})
	if err != nil {
		t.Fatal(err)
	}
	sess := profiling.NewSession(s, profiling.Spec{
		Resolution: 1000,
		Params:     profiling.StandardParams(),
		DAP:        true,
	})
	if err := sess.Run(context.Background(), app, 500_000); err != nil {
		t.Fatal(err)
	}
	prof, err := sess.Result("quickstart")
	if err != nil {
		t.Fatal(err)
	}
	if prof.Instr == 0 || prof.Cycles == 0 {
		t.Fatal("nothing ran")
	}
	ipc := prof.Rate("ipc")
	if ipc <= 0 || ipc > 3 {
		t.Errorf("IPC = %v", ipc)
	}
	if len(prof.Series) != len(profiling.StandardParams()) {
		t.Errorf("parameters = %d", len(prof.Series))
	}
	for _, name := range []string{"ipc", "icache_miss", "dflash_read", "interrupt"} {
		if len(prof.Series[name].Samples) == 0 {
			t.Errorf("no samples for %s", name)
		}
	}
}

// TestEndToEndDeterminism locks the whole stack: identical seeds produce
// the identical profile through SoC, workload, MCDS, EMEM and DAP.
func TestEndToEndDeterminism(t *testing.T) {
	run := func() (uint64, uint64, float64) {
		s := soc.New(soc.TC1797().WithED(), 7)
		app, err := workload.Build(s, workload.Spec{
			Name: "det", Seed: 7, CodeKB: 8, TableKB: 8, FilterTaps: 8,
			DiagBranches: 8, ADCPeriod: 2000, TimerPeriod: 8000, CANMeanGap: 4000,
		})
		if err != nil {
			t.Fatal(err)
		}
		sess := profiling.NewSession(s, profiling.Spec{
			Resolution: 500, Params: profiling.StandardParams(),
		})
		if err := sess.Run(context.Background(), app, 300_000); err != nil {
			t.Fatal(err)
		}
		prof, err := sess.Result("det")
		if err != nil {
			t.Fatal(err)
		}
		return prof.Instr, prof.TraceBytes, prof.Rate("ipc")
	}
	i1, b1, r1 := run()
	i2, b2, r2 := run()
	if i1 != i2 || b1 != b2 || r1 != r2 {
		t.Errorf("not deterministic: (%d,%d,%v) vs (%d,%d,%v)", i1, b1, r1, i2, b2, r2)
	}
}
