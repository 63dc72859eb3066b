package main

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/campaign"
	"repro/internal/profiling"
)

// cellArgs renders a campaign cell's run configuration as tcprof flags.
func cellArgs(c campaign.Cell) []string {
	r := c.Run
	return []string{"-soc", r.SoC, "-mix", c.Mix, "-seed", fmt.Sprint(r.Seed),
		"-cycles", fmt.Sprint(r.Cycles), "-res", fmt.Sprint(r.Resolution),
		"-faults", r.Faults, fmt.Sprintf("-framed=%t", r.Framed), fmt.Sprintf("-degrade=%t", r.Degrade)}
}

// TestJSONIsTheCampaignCell: tcprof runs the campaign's product cell, so
// its -json report is byte for byte the report the one-cell campaign
// hands to tcfleet, clean and faulted. Every run writes the same bytes,
// also when -metrics serves a registry: the report carries no host cost.
func TestJSONIsTheCampaignCell(t *testing.T) {
	for _, plan := range []string{"clean", "flaky-cable"} {
		t.Run(plan, func(t *testing.T) {
			m := campaign.Matrix{Mixes: []string{"engine"}, Faults: []string{plan}, Cycles: 300_000, Seed: 5}
			cells, err := m.Expand()
			if err != nil {
				t.Fatal(err)
			}
			if len(cells) != 1 {
				t.Fatalf("matrix expands to %d cells, want 1", len(cells))
			}
			var want bytes.Buffer
			res, err := campaign.Run(context.Background(), m, campaign.Options{
				Workers: 1,
				OnReport: func(_ campaign.Cell, r *profiling.RunReport) {
					if err := r.WriteJSON(&want); err != nil {
						t.Error(err)
					}
				},
			})
			if err != nil || res.Completed != 1 {
				t.Fatalf("campaign: %+v, %v", res, err)
			}

			for i, extra := range [][]string{nil, nil, {"-metrics", "127.0.0.1:0"}} {
				path := filepath.Join(t.TempDir(), "r.json")
				args := append(cellArgs(cells[0]), append(extra, "-json", path)...)
				if err := run(context.Background(), args, new(bytes.Buffer)); err != nil {
					t.Fatalf("tcprof %v: %v", args, err)
				}
				got, err := os.ReadFile(path)
				if err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(got, want.Bytes()) {
					t.Errorf("run %d (%v): -json report differs from the campaign cell's:\n%s\nwant\n%s",
						i, extra, got, want.Bytes())
				}
			}
		})
	}
}

// TestCanceledRunReportsPartialProfile: a context canceled before the
// run (Ctrl-C) still drains the session and prints the summary of the
// cycles that ran, here none, and is not an error.
func TestCanceledRunReportsPartialProfile(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	var out bytes.Buffer
	if err := run(ctx, []string{"-cycles", "300000"}, &out); err != nil {
		t.Fatalf("canceled run returned %v", err)
	}
	if s := out.String(); !strings.HasPrefix(s, "TC1797ED  0 cycles  0 instructions") ||
		!strings.Contains(s, "\nparameter ") {
		t.Errorf("partial-profile summary missing:\n%s", s)
	}
}
