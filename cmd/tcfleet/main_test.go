package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/campaign"
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

// captureStdout runs f with os.Stdout redirected and returns what it
// printed.
func captureStdout(t *testing.T, f func() error) ([]byte, error) {
	t.Helper()
	out, err := os.CreateTemp(t.TempDir(), "stdout")
	if err != nil {
		t.Fatal(err)
	}
	defer out.Close()
	stdout := os.Stdout
	os.Stdout = out
	err = f()
	os.Stdout = stdout
	b, rerr := os.ReadFile(out.Name())
	if rerr != nil {
		t.Fatal(rerr)
	}
	return b, err
}

// TestAggregateSkipsCorruptReports: a truncated or garbage report in a
// directory, and a journal line that fails its checksum, are skipped
// with a warning — never abort the aggregation of the valid reports
// around them. A journal directory aggregates to the profile of the
// campaign that wrote it, byte for byte, runs named by cell ID.
func TestAggregateSkipsCorruptReports(t *testing.T) {
	dir := t.TempDir()
	for i, r := range []*profiling.RunReport{testReport(1), testReport(2)} {
		if err := writeFile(filepath.Join(dir, "good"+string(rune('a'+i))+".json"), r.WriteJSON); err != nil {
			t.Fatal(err)
		}
	}
	if err := os.WriteFile(filepath.Join(dir, "garbage.json"), []byte("{\"schema_ver"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "junk.json"), []byte("not json"), 0o644); err != nil {
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

	// A journal directory is read as the campaign it journals.
	m := campaign.Matrix{
		Name: "agg", Seed: 3, Seeds: 2, SoCs: []string{"TC1797"}, Mixes: []string{"lean"},
		Faults: []string{"clean"}, Resolutions: []uint64{500}, Cycles: 30_000,
	}
	jdir := t.TempDir()
	res, err := campaign.Run(context.Background(), m, campaign.Options{Workers: 1, JournalDir: jdir})
	if err != nil {
		t.Fatal(err)
	}
	var want bytes.Buffer
	if err := res.Profile.WriteJSON(&want); err != nil {
		t.Fatal(err)
	}
	got, err := captureStdout(t, func() error { return runAggregate([]string{"-json", jdir}) })
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want.Bytes()) {
		t.Errorf("aggregate -json of the journal differs from the campaign's profile:\n got %.200s\nwant %.200s", got, want.Bytes())
	}
	if ents, _ := os.ReadDir(jdir); len(ents) != 1 || ents[0].Name() != campaign.JournalName {
		t.Errorf("journal directory holds %v, want only %s", ents, campaign.JournalName)
	}

	// One flipped journal line costs its cell, with a warning.
	path := filepath.Join(jdir, campaign.JournalName)
	jb, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	jb[len(jb)-20] ^= 0x01 // inside the last cell line
	if err := os.WriteFile(path, jb, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := runAggregate([]string{"-out", out, jdir}); err != nil {
		t.Fatalf("aggregate aborted on a corrupt journal line: %v", err)
	}
	if data, err = os.ReadFile(out); err != nil {
		t.Fatal(err)
	}
	fp = profiling.FleetProfile{}
	if err := json.Unmarshal(data, &fp); err != nil {
		t.Fatal(err)
	}
	if len(fp.Runs) != res.Cells-1 {
		t.Errorf("aggregated %d journaled runs, want %d (one line flipped)", len(fp.Runs), res.Cells-1)
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

// TestWriteFileAtomicLeavesNoTornFile: a failing write callback must
// leave neither the target nor a temp file behind.
func TestWriteFileAtomicLeavesNoTornFile(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "out.json")
	boom := errors.New("disk on fire")
	if err := writeFile(path, func(w io.Writer) error {
		w.Write([]byte("partial"))
		return boom
	}); !errors.Is(err, boom) {
		t.Fatalf("error not surfaced: %v", err)
	}
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(ents) != 0 {
		t.Fatalf("failed write left %v behind", ents)
	}
	if err := writeFile(path, func(w io.Writer) error {
		_, err := w.Write([]byte("complete"))
		return err
	}); err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(path)
	if err != nil || string(got) != "complete" {
		t.Fatalf("read back %q, %v", got, err)
	}
	if ents, _ := os.ReadDir(dir); len(ents) != 1 {
		t.Fatalf("temp residue after success: %v", ents)
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

func TestBindSupervise(t *testing.T) {
	fs := flag.NewFlagSet("x", flag.ContinueOnError)
	s := bindSupervise(fs)
	if err := fs.Parse([]string{"-celltimeout", "30s", "-retries", "3"}); err != nil {
		t.Fatal(err)
	}
	if s.CellTimeout != 30*time.Second || s.Retries != 3 {
		t.Fatalf("parsed supervise = %+v", *s)
	}
	if err := s.Validate(); err != nil {
		t.Fatal(err)
	}
	for _, bad := range []supervise{{CellTimeout: -time.Second}, {Retries: -1}} {
		if err := bad.Validate(); err == nil {
			t.Errorf("supervise %+v validated", bad)
		}
	}
}

// TestBindShardTimingValidation: the shard flag cross-checks. Remote
// workers must authenticate, and a key file without agents is a
// mistake worth reporting. Supervision timing has no flags: the hang
// budget is counted in heartbeat periods, so no timing rule can be
// broken.
func TestBindShardTimingValidation(t *testing.T) {
	parse := func(t *testing.T, args ...string) *shardConfig {
		t.Helper()
		fs := flag.NewFlagSet("x", flag.ContinueOnError)
		s := bindShard(fs)
		if err := fs.Parse(args); err != nil {
			t.Fatal(err)
		}
		return s
	}

	// Good configurations.
	for _, args := range [][]string{
		nil,
		{"-shards", "4"},
		{"-agents", "h1:9001,h2:9001", "-keyfile", "key"},
	} {
		if err := parse(t, args...).Validate(); err != nil {
			t.Errorf("Validate(%v) = %v, want ok", args, err)
		}
	}

	for _, tc := range []struct {
		args []string
		want string
	}{
		{[]string{"-agents", "h1:9001"}, "requires -keyfile"},
		{[]string{"-keyfile", "key"}, "no effect without -agents"},
	} {
		err := parse(t, tc.args...).Validate()
		if err == nil {
			t.Errorf("Validate(%v) accepted, want error mentioning %q", tc.args, tc.want)
			continue
		}
		if !strings.Contains(err.Error(), tc.want) {
			t.Errorf("Validate(%v) = %v, want mention of %q", tc.args, err, tc.want)
		}
	}

	if err := (shardConfig{ShardRetries: -1}).Validate(); err != nil {
		t.Errorf("zero-value shardConfig rejected: %v", err)
	}
	// The timing flags are gone, not ignored.
	for _, name := range []string{"hb", "hbtimeout", "draintimeout"} {
		fs := flag.NewFlagSet("x", flag.ContinueOnError)
		fs.SetOutput(io.Discard)
		bindShard(fs)
		if err := fs.Parse([]string{"-" + name, "1s"}); err == nil {
			t.Errorf("-%s parsed; the flag should be unknown", name)
		}
	}
}

// TestShardWorkerTakesNoArguments: the worker's whole assignment is the
// spec on stdin, so any argument is a caller error, refused before
// stdin is read.
func TestShardWorkerTakesNoArguments(t *testing.T) {
	for _, args := range [][]string{{"-cells", "0-3"}, {"extra"}} {
		if code := shardWorker(args); code == 0 {
			t.Errorf("shard-worker %q exited 0", args)
		}
	}
}

// TestRunRefusesBadMatrixQuietly: a matrix that does not expand is
// refused before anything is announced, served or spawned — the error
// main prints is the whole output.
func TestRunRefusesBadMatrixQuietly(t *testing.T) {
	for _, args := range [][]string{
		{"-seeds", "2000000000"},
		{"-seeds", "2000000000", "-shards", "2"},
		{"-mixes", "lean,bogus"},
	} {
		f, err := os.CreateTemp(t.TempDir(), "stderr")
		if err != nil {
			t.Fatal(err)
		}
		stderr := os.Stderr
		os.Stderr = f
		err = runCampaign(args)
		os.Stderr = stderr
		f.Close()
		out, rerr := os.ReadFile(f.Name())
		if rerr != nil {
			t.Fatal(rerr)
		}
		if err == nil {
			t.Errorf("%q: run succeeded", args)
		}
		if len(out) != 0 {
			t.Errorf("%q: printed %q before the error %v", args, out, err)
		}
	}
}
