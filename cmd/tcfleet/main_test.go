package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/profiling"
)

// testReport builds a minimal valid run report for aggregation tests.
func testReport(seed uint64) *profiling.RunReport {
	return &profiling.RunReport{
		Schema: profiling.ReportSchemaVersion,
		App:    "t", SoC: "TC1797", Seed: seed,
		Cycles: 1000, Resolution: 100, Confidence: 1,
		Params: map[string]profiling.ParamStats{
			"ipc": {Mean: 0.5, Min: 0.1, Max: 0.9, Windows: 10, Confidence: 1},
		},
	}
}

// TestAggregateSkipsCorruptReports: a truncated, garbage, or
// checksum-inconsistent report in a directory is skipped with a
// warning — never aborts the aggregation of the valid reports around
// it.
func TestAggregateSkipsCorruptReports(t *testing.T) {
	dir := t.TempDir()
	for i, r := range []*profiling.RunReport{testReport(1), testReport(2)} {
		path := filepath.Join(dir, "good"+string(rune('a'+i))+".json")
		b, _, err := r.EncodeSummed()
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, b, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	if err := os.WriteFile(filepath.Join(dir, "garbage.json"), []byte("{\"schema_ver"), 0o644); err != nil {
		t.Fatal(err)
	}
	good, _, err := testReport(3).EncodeSummed()
	if err != nil {
		t.Fatal(err)
	}
	good[len(good)/3] ^= 0x04 // valid trailer, corrupted body
	if err := os.WriteFile(filepath.Join(dir, "badcrc.json"), good, 0o644); err != nil {
		t.Fatal(err)
	}

	out := filepath.Join(t.TempDir(), "fleet.json")
	if err := runAggregate([]string{"-out", out, dir}); err != nil {
		t.Fatalf("aggregate aborted on corrupt inputs: %v", err)
	}
	data, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	var fp profiling.FleetProfile
	if err := json.Unmarshal(data, &fp); err != nil {
		t.Fatal(err)
	}
	if len(fp.Runs) != 2 {
		t.Errorf("aggregated %d runs, want the 2 valid ones", len(fp.Runs))
	}

	// All-corrupt input is an error, not a silent empty profile.
	bad := t.TempDir()
	if err := os.WriteFile(filepath.Join(bad, "junk.json"), []byte("not json"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := runAggregate([]string{bad}); err == nil {
		t.Error("aggregation of only-corrupt inputs succeeded")
	}
}

// TestBareDirectoryIsNotASubcommand pins the removal of the historical
// bare form ("tcfleet report-dir"): a path argument is an unknown
// subcommand, and the error points at the two real spellings.
func TestBareDirectoryIsNotASubcommand(t *testing.T) {
	err := run([]string{t.TempDir()})
	if err == nil {
		t.Fatal("bare directory argument was accepted")
	}
	for _, want := range []string{"unknown subcommand", "aggregate", "run"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("error %q does not mention %q", err, want)
		}
	}
}
