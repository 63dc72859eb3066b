package campaign

import (
	"bytes"
	"context"
	"errors"
	"fmt"
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

// journalLines reads the journal in dir as its lines, newlines kept.
func journalLines(t *testing.T, dir string) [][]byte {
	t.Helper()
	data, err := os.ReadFile(filepath.Join(dir, JournalName))
	if err != nil {
		t.Fatal(err)
	}
	return bytes.SplitAfter(data, []byte("\n"))
}

// writeJournal replaces the journal in dir with the given lines.
func writeJournal(t *testing.T, dir string, lines [][]byte) {
	t.Helper()
	if err := os.WriteFile(filepath.Join(dir, JournalName), bytes.Join(lines, nil), 0o644); err != nil {
		t.Fatal(err)
	}
}

// TestCampaignResumeCorruptReports: a bit-flipped cell line and a torn
// last line fail verification, their cells re-run, and the final
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
	// Header, one line per cell, and the empty remainder after the
	// last newline.
	lines := journalLines(t, dir)
	if len(lines) != m.Size()+2 || len(lines[len(lines)-1]) != 0 {
		t.Fatalf("journal has %d lines, want header + %d cells", len(lines)-1, m.Size())
	}
	// Flip a byte inside one cell's line (checksum intact, body
	// diverges) and tear the last one mid-write.
	lines[3][len(lines[3])/3] ^= 0x20
	last := lines[len(lines)-2]
	lines[len(lines)-2] = last[:len(last)/2]
	writeJournal(t, dir, lines)

	res, err := Run(context.Background(), m, Options{Workers: 2, JournalDir: dir, Resume: true})
	if err != nil {
		t.Fatal(err)
	}
	if res.Resumed != m.Size()-2 {
		t.Errorf("resumed %d cells, want %d (two corrupt)", res.Resumed, m.Size()-2)
	}
	wantWarn := []string{"2 torn or corrupt journal line(s) dropped"}
	if !reflect.DeepEqual(res.Warnings, wantWarn) {
		t.Errorf("warnings = %q, want %q", res.Warnings, wantWarn)
	}
	if res.Completed != m.Size() || res.Failed != 0 {
		t.Fatalf("resumed run = %+v", res)
	}
	if got := profileJSON(t, res); !bytes.Equal(got, want) {
		t.Error("aggregate after corrupt-report re-run differs from uninterrupted run")
	}
}

// TestCampaignResumeTornTail: a journal whose last line was torn
// mid-write resumes, and the resume appends its first line after the
// last whole one, not onto the fragment — so a second resume finds
// every cell journaled, re-runs none, and aggregates the same bytes.
func TestCampaignResumeTornTail(t *testing.T) {
	m := resumeMatrix()
	m.Faults = []string{"clean"}
	m.Seeds = 2 // 4 cells
	ref, err := Run(context.Background(), m, Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	want := profileJSON(t, ref)

	dir := t.TempDir()
	if _, err := Run(context.Background(), m, Options{Workers: 1, JournalDir: dir}); err != nil {
		t.Fatal(err)
	}
	lines := journalLines(t, dir)
	last := lines[len(lines)-2]
	lines[len(lines)-2] = last[:len(last)/2]
	writeJournal(t, dir, lines)

	res1, err := Run(context.Background(), m, Options{Workers: 1, JournalDir: dir, Resume: true})
	if err != nil {
		t.Fatal(err)
	}
	if res1.Resumed != m.Size()-1 || res1.Completed != m.Size() {
		t.Fatalf("first resume: resumed %d, completed %d of %d", res1.Resumed, res1.Completed, m.Size())
	}
	res2, err := Run(context.Background(), m, Options{Workers: 1, JournalDir: dir, Resume: true})
	if err != nil {
		t.Fatal(err)
	}
	if res2.Resumed != m.Size() || len(res2.Warnings) != 0 {
		t.Errorf("second resume: resumed %d of %d, warnings %q", res2.Resumed, m.Size(), res2.Warnings)
	}
	for _, res := range []*Result{res1, res2} {
		if got := profileJSON(t, res); !bytes.Equal(got, want) {
			t.Error("aggregate after a torn-tail resume differs from uninterrupted run")
		}
	}
	// The fragment is gone: every line of the journal verifies.
	for i, line := range journalLines(t, dir) {
		if len(line) == 0 {
			continue
		}
		if _, ok := DecodeLine(bytes.TrimSuffix(line, []byte("\n"))); !ok {
			t.Errorf("journal line %d does not verify: %.60q", i+1, line)
		}
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

	// The journal must carry the classified failure with its attempts.
	f, err := os.Open(filepath.Join(dir, JournalName))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	lr := NewLineReader(f, MaxLine)
	var foundFailed bool
	for {
		e, err := lr.Next()
		if err != nil {
			break
		}
		if e.Kind == "fail" {
			foundFailed = true
			if e.Index != 2 || e.Class != ClassTransient || e.Attempts != 2 || e.Error == "" {
				t.Errorf("fail line = %+v", e)
			}
		}
	}
	if lr.Torn() != 0 {
		t.Errorf("journal has %d torn lines", lr.Torn())
	}
	if !foundFailed {
		t.Fatal("no fail line journaled")
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
// for, a directory without a journal, a corrupt header and a version-1
// manifest.
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
		t.Error("resume without a journal succeeded")
	}

	lines := journalLines(t, dir)
	lines[0][len(lines[0])/2] ^= 0x01
	writeJournal(t, dir, lines)
	if _, err := Run(context.Background(), m, Options{Workers: 1, JournalDir: dir, Resume: true}); err == nil ||
		!strings.Contains(err.Error(), "corrupt journal header") {
		t.Errorf("resume with a flipped header: err = %v", err)
	}

	v1 := t.TempDir()
	manifest := `{"journal_version":1,"seed":1,"cells":8,"matrix_hash":"ab","matrix":{}}` + "\n" +
		`{"cell":"c0000","index":0,"status":"done","attempts":1,"crc32":"01234567"}` + "\n"
	if err := os.WriteFile(filepath.Join(v1, JournalName), []byte(manifest), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Run(context.Background(), m, Options{Workers: 1, JournalDir: v1, Resume: true}); err == nil ||
		!strings.Contains(err.Error(), "journal version 1 not supported") {
		t.Errorf("resume of a version-1 manifest: err = %v", err)
	}
	if _, err := LoadJournalMatrix(v1); err == nil || !strings.Contains(err.Error(), "journal version 1") {
		t.Errorf("LoadJournalMatrix of a version-1 manifest: err = %v", err)
	}
}

// TestLoadJournalMatrix: the journal header round-trips the matrix,
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
