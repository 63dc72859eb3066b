package campaign

import (
	"bytes"
	"context"
	"testing"

	"repro/internal/soc"
)

// TestCampaignBlockDecodeDeterminism runs the same matrix under the
// default chained dispatch and per-word reference decode and demands
// byte-identical canonical aggregate JSON. Together with the per-report
// grid in internal/profiling this pins the dispatch contract at fleet
// scale: the decoded-block cache and its chain links are pure wall-clock
// optimizations with no observable effect on any simulated result.
func TestCampaignBlockDecodeDeterminism(t *testing.T) {
	m := testMatrix()
	chained, err := Run(context.Background(), m, Options{Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	if chained.Completed != m.Size() || chained.Failed != 0 {
		t.Fatalf("chained run = %+v", chained)
	}
	ref, err := Run(context.Background(), m, Options{
		Workers: 4,
		exec:    tunedCell(t, func(s *soc.SoC) { s.SetBlockDecode(false) }),
	})
	if err != nil {
		t.Fatal(err)
	}
	if ref.Completed != m.Size() || ref.Failed != 0 {
		t.Fatalf("reference run = %+v", ref)
	}
	if !bytes.Equal(profileJSON(t, ref), profileJSON(t, chained)) {
		t.Error("campaign aggregate differs between reference and chained dispatch")
	}
}
