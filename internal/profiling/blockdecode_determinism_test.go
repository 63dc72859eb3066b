package profiling

import (
	"bytes"
	"testing"

	"repro/internal/fault"
	"repro/internal/soc"
	"repro/internal/workload"
)

// TestBlockDecodeReportDeterminism is the PR8 analog of the wake-scheduler
// cross-check: a full SoC with the ED observation path, a fault scenario
// and the whole trace pipeline must produce a byte-identical RunReport
// under chained block dispatch (the default) and the per-word reference.
// Any drift means the cached path issued, stalled, or retired differently
// from the reference issue loop.
func TestBlockDecodeReportDeterminism(t *testing.T) {
	run := func(block bool) []byte {
		spec := stdSpec()
		s, app := buildApp(t, soc.TC1797().WithED(), spec)
		s.SetBlockDecode(block)
		plan, err := fault.Parse("noisy-link", spec.Seed)
		if err != nil {
			t.Fatal(err)
		}
		sess := NewSession(s, Spec{
			Resolution: 500,
			Params:     StandardParams(),
			DAP:        true,
			Framed:     true,
			Fault:      &plan,
		})
		mustRun(t, sess, app, 600_000)
		p, err := sess.Result(spec.Name)
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := sess.RunReport(p, spec.Seed).WriteJSON(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	ref := run(false)
	if got := run(true); !bytes.Equal(got, ref) {
		t.Fatalf("RunReport differs between decode paths:\n--- chained ---\n%s\n--- reference ---\n%s", got, ref)
	}
}

// TestBlockDecodeDeterminismGrid widens the cross-check over the full SoC
// preset × workload mix × fault scenario grid on the cheap no-DAP path.
func TestBlockDecodeDeterminismGrid(t *testing.T) {
	for _, preset := range soc.PresetNames() {
		for _, mix := range workload.MixNames() {
			for _, scenario := range []string{"clean", "soft-errors"} {
				preset, mix, scenario := preset, mix, scenario
				t.Run(preset+"/"+mix+"/"+scenario, func(t *testing.T) {
					run := func(block bool) []byte {
						spec, ok := workload.Mix(mix, 17)
						if !ok {
							t.Fatalf("unknown mix %q", mix)
						}
						cfg, err := soc.Preset(preset)
						if err != nil {
							t.Fatal(err)
						}
						s := soc.New(cfg.WithED(), 17)
						s.SetBlockDecode(block)
						app, err := workload.Build(s, spec)
						if err != nil {
							t.Fatal(err)
						}
						plan, err := fault.Parse(scenario, 17)
						if err != nil {
							t.Fatal(err)
						}
						sess := NewSession(s, Spec{
							Resolution: 500,
							Params:     StandardParams(),
							Fault:      &plan,
						})
						mustRun(t, sess, app, 250_000)
						p, err := sess.Result(spec.Name)
						if err != nil {
							t.Fatal(err)
						}
						var buf bytes.Buffer
						if err := sess.RunReport(p, 17).WriteJSON(&buf); err != nil {
							t.Fatal(err)
						}
						return buf.Bytes()
					}
					if !bytes.Equal(run(true), run(false)) {
						t.Fatalf("%s/%s/%s: RunReport differs between chained and reference", preset, mix, scenario)
					}
				})
			}
		}
	}
}
