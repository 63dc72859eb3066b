package campaign

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/obs"
	"repro/internal/profiling"
)

// TestWriteFileAtomicLeavesNoTornFile: a failing write callback must
// leave neither the target nor a temp file behind.
func TestWriteFileAtomicLeavesNoTornFile(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "out.json")
	boom := errors.New("disk on fire")
	if err := WriteFileAtomic(path, func(w io.Writer) error {
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
	if err := WriteFileAtomic(path, func(w io.Writer) error {
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

// resumeMatrix is testMatrix at a lighter horizon: the resume suite
// runs many full campaigns, and determinism holds at any horizon.
func resumeMatrix() Matrix {
	m := testMatrix()
	m.Cycles = 30_000
	return m
}

// runInterrupted journals a campaign into dir and cancels it once k
// cells have completed (k == 0 cancels before anything runs). It
// returns the interrupted result.
func runInterrupted(t *testing.T, m Matrix, dir string, workers, k int) *Result {
	t.Helper()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var n atomic.Int32
	opt := Options{Workers: workers, JournalDir: dir}
	if k == 0 {
		cancel()
	} else {
		opt.OnReport = func(Cell, *profiling.RunReport) {
			if int(n.Add(1)) >= k {
				cancel()
			}
		}
	}
	res, err := Run(ctx, m, opt)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// TestCampaignResumeDeterminism is the tentpole acceptance test: kill
// a journaled campaign after k cells, resume it, and the final
// aggregate JSON must be byte-identical to an uninterrupted run — for
// k ∈ {0, mid, all} and workers ∈ {1, 8}.
func TestCampaignResumeDeterminism(t *testing.T) {
	m := resumeMatrix()
	ref, err := Run(context.Background(), m, Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	want := profileJSON(t, ref)

	for _, workers := range []int{1, 8} {
		for _, k := range []int{0, 4, m.Size()} {
			t.Run(fmt.Sprintf("workers=%d/k=%d", workers, k), func(t *testing.T) {
				dir := t.TempDir()
				res1 := runInterrupted(t, m, dir, workers, k)
				if k == 0 && res1.Completed != 0 {
					t.Fatalf("pre-canceled run completed %d cells", res1.Completed)
				}
				if k > 0 && res1.Completed < k {
					t.Fatalf("interrupted run completed %d cells, want >= %d", res1.Completed, k)
				}
				res2, err := Run(context.Background(), m, Options{
					Workers: workers, JournalDir: dir, Resume: true, Obs: obs.New(),
				})
				if err != nil {
					t.Fatal(err)
				}
				if res2.Completed != m.Size() || res2.Failed != 0 || res2.Canceled {
					t.Fatalf("resumed run = %+v", res2)
				}
				if res2.Resumed != res1.Completed {
					t.Errorf("resumed %d journaled cells, interrupted run completed %d",
						res2.Resumed, res1.Completed)
				}
				if len(res2.Warnings) != 0 {
					t.Errorf("clean resume produced warnings: %v", res2.Warnings)
				}
				if got := profileJSON(t, res2); !bytes.Equal(got, want) {
					t.Error("resumed aggregate differs from uninterrupted run")
				}
			})
		}
	}
}

// TestCampaignResumeObs: resume skips surface on the observability
// registry.
func TestCampaignResumeObs(t *testing.T) {
	m := resumeMatrix()
	dir := t.TempDir()
	res1 := runInterrupted(t, m, dir, 2, 2)
	reg := obs.New()
	res2, err := Run(context.Background(), m, Options{Workers: 2, JournalDir: dir, Resume: true, Obs: reg})
	if err != nil {
		t.Fatal(err)
	}
	if got := reg.Counter("campaign_resume_skips").Value(); got != uint64(res1.Completed) {
		t.Errorf("campaign_resume_skips = %d, interrupted run completed %d", got, res1.Completed)
	}
	if got := reg.Counter("campaign_sessions_done").Value(); got != uint64(res2.Completed-res2.Resumed) {
		t.Errorf("campaign_sessions_done = %d, want %d executed", got, res2.Completed-res2.Resumed)
	}
}

// TestCampaignResumeCorruptReports: resumed reports that were torn or
// bit-flipped on disk fail verification, get re-run, and the final
// aggregate is still byte-identical to an uninterrupted run.
func TestCampaignResumeCorruptReports(t *testing.T) {
	m := resumeMatrix()
	ref, err := Run(context.Background(), m, Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	want := profileJSON(t, ref)

	dir := t.TempDir()
	full, err := Run(context.Background(), m, Options{Workers: 4, JournalDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	if full.Completed != m.Size() {
		t.Fatalf("journaled run completed %d/%d", full.Completed, m.Size())
	}
	cells, err := m.Expand()
	if err != nil {
		t.Fatal(err)
	}
	// Tear one report (truncation loses the trailer) and bit-flip
	// another (trailer intact, body diverges).
	torn := filepath.Join(dir, cells[1].ID+".json")
	data, err := os.ReadFile(torn)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(torn, data[:len(data)/2], 0o644); err != nil {
		t.Fatal(err)
	}
	flipped := filepath.Join(dir, cells[6].ID+".json")
	data, err = os.ReadFile(flipped)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)/3] ^= 0x20
	if err := os.WriteFile(flipped, data, 0o644); err != nil {
		t.Fatal(err)
	}

	res, err := Run(context.Background(), m, Options{Workers: 2, JournalDir: dir, Resume: true})
	if err != nil {
		t.Fatal(err)
	}
	if res.Resumed != m.Size()-2 {
		t.Errorf("resumed %d cells, want %d (two corrupt)", res.Resumed, m.Size()-2)
	}
	if len(res.Warnings) != 2 {
		t.Errorf("warnings = %v, want 2", res.Warnings)
	}
	if res.Completed != m.Size() || res.Failed != 0 {
		t.Fatalf("resumed run = %+v", res)
	}
	if got := profileJSON(t, res); !bytes.Equal(got, want) {
		t.Error("aggregate after corrupt-report re-run differs from uninterrupted run")
	}
}

// TestCampaignResumeFailedCellsRerun: journaled failures (with their
// classified attempts) are re-executed on resume.
func TestCampaignResumeFailedCellsRerun(t *testing.T) {
	m := resumeMatrix()
	dir := t.TempDir()
	res1, err := Run(context.Background(), m, Options{
		Workers: 2, JournalDir: dir, Retries: 1, retryBackoff: time.Millisecond,
		exec: func(ctx context.Context, c Cell) (*profiling.RunReport, error) {
			if c.Index == 2 {
				return nil, Transient(errors.New("persistently flaky"))
			}
			return runCell(ctx, c)
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if res1.Failed != 1 || res1.Errors[0].Attempts != 2 {
		t.Fatalf("first run = failed %d, errors %v", res1.Failed, res1.Errors)
	}

	// The manifest must carry the classified failure with its attempts.
	raw, err := os.ReadFile(filepath.Join(dir, ManifestName))
	if err != nil {
		t.Fatal(err)
	}
	var foundFailed bool
	for _, line := range strings.Split(strings.TrimSpace(string(raw)), "\n")[1:] {
		var e journalEntry
		if err := json.Unmarshal([]byte(line), &e); err != nil {
			t.Fatalf("bad manifest line %q: %v", line, err)
		}
		if e.Status == "failed" {
			foundFailed = true
			if e.Index != 2 || e.Class != string(ClassTransient) || e.Attempts != 2 || e.Error == "" {
				t.Errorf("failed entry = %+v", e)
			}
		}
	}
	if !foundFailed {
		t.Fatal("no failed entry journaled")
	}

	res2, err := Run(context.Background(), m, Options{Workers: 2, JournalDir: dir, Resume: true})
	if err != nil {
		t.Fatal(err)
	}
	if res2.Completed != m.Size() || res2.Failed != 0 || res2.Resumed != m.Size()-1 {
		t.Fatalf("resume after failure = %+v", res2)
	}
	ref, err := Run(context.Background(), m, Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(profileJSON(t, res2), profileJSON(t, ref)) {
		t.Error("aggregate after failed-cell re-run differs from clean run")
	}
}

// TestCampaignJournalGuards: a fresh journal refuses to clobber an
// existing one; resume refuses a matrix the journal was not written
// for, and a directory without a manifest.
func TestCampaignJournalGuards(t *testing.T) {
	m := resumeMatrix()
	dir := t.TempDir()
	runInterrupted(t, m, dir, 2, 2)

	if _, err := Run(context.Background(), m, Options{Workers: 1, JournalDir: dir}); err == nil ||
		!strings.Contains(err.Error(), "already exists") {
		t.Errorf("fresh journal over existing one: err = %v", err)
	}

	m2 := m
	m2.Seed++
	if _, err := Run(context.Background(), m2, Options{Workers: 1, JournalDir: dir, Resume: true}); err == nil ||
		!strings.Contains(err.Error(), "different matrix") {
		t.Errorf("resume with drifted matrix: err = %v", err)
	}

	if _, err := Run(context.Background(), m, Options{Workers: 1, JournalDir: t.TempDir(), Resume: true}); err == nil {
		t.Error("resume without a manifest succeeded")
	}
}

// TestLoadJournalMatrix: the manifest header round-trips the matrix,
// so resume needs no flags.
func TestLoadJournalMatrix(t *testing.T) {
	m := resumeMatrix()
	dir := t.TempDir()
	runInterrupted(t, m, dir, 1, 1)
	got, err := LoadJournalMatrix(dir)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, m) {
		t.Errorf("journal matrix = %+v, want %+v", got, m)
	}
	cells, err := m.Expand()
	if err != nil {
		t.Fatal(err)
	}
	cells2, err := got.Expand()
	if err != nil {
		t.Fatal(err)
	}
	if MatrixHash(cells) != MatrixHash(cells2) {
		t.Error("round-tripped matrix expands to a different hash")
	}
}
