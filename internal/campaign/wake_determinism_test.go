package campaign

import (
	"bytes"
	"context"
	"testing"

	"repro/internal/profiling"
	"repro/internal/soc"
)

// TestCampaignWakeSchedulerDeterminism runs the same matrix twice — once
// with every cell's SoC in the default quiescence-scheduled kernel mode,
// once with the wake scheduler force-disabled — and demands byte-identical
// canonical aggregate JSON. Together with the per-report check in
// internal/profiling this pins the Sleeper contract at fleet scale: the
// scheduler is a pure wall-clock optimization with no observable effect on
// any simulated result.
func TestCampaignWakeSchedulerDeterminism(t *testing.T) {
	m := testMatrix()
	sched, err := Run(context.Background(), m, Options{Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	if sched.Completed != m.Size() || sched.Failed != 0 {
		t.Fatalf("scheduled run = %+v", sched)
	}
	want := profileJSON(t, sched)

	unsched, err := Run(context.Background(), m, Options{
		Workers: 4,
		exec:    tunedCell(t, func(s *soc.SoC) { s.Clock.SetWakeScheduling(false) }),
	})
	if err != nil {
		t.Fatal(err)
	}
	if unsched.Completed != m.Size() || unsched.Failed != 0 {
		t.Fatalf("unscheduled run = %+v", unsched)
	}
	if got := profileJSON(t, unsched); !bytes.Equal(got, want) {
		t.Error("campaign aggregate differs between wake-scheduler modes")
	}
}

// tunedCell is runCell with tune applied to the built SoC before the
// session runs. tune must see the SoC at cycle 0, or the oracle it
// switches on misses the cycles run before it.
func tunedCell(t *testing.T, tune func(*soc.SoC)) execFn {
	return func(ctx context.Context, cell Cell) (*profiling.RunReport, error) {
		p, err := BuildCell(cell, nil, nil)
		if err != nil {
			return nil, err
		}
		if c := p.SoC.Clock.Cycle(); c != 0 {
			t.Errorf("cell %s: built SoC at cycle %d, want 0", cell.ID, c)
		}
		tune(p.SoC)
		if err := p.Run(ctx, p.App, cell.Run.Cycles); err != nil {
			return nil, err
		}
		prof, err := p.Result(p.Spec.Name)
		if err != nil {
			return nil, err
		}
		return p.RunReport(prof, cell.Run.Seed), nil
	}
}
