// Journal: the campaign's write-ahead persistence layer. Every
// completed cell's run report is persisted atomically (tmp + rename,
// fsync'd) with an embedded CRC-32 trailer line, and a campaign.journal
// manifest — one JSON line per event, appended and fsync'd as cells
// finish — records the matrix (and a hash of its expansion), the
// campaign seed, and per-cell status/attempts. A crash or SIGKILL at
// any point therefore loses at most the cells that were mid-flight:
// resume validates the manifest against the re-expanded matrix, loads
// every journaled-complete report (verifying both the embedded trailer
// and the manifest's cross-recorded CRC), re-runs failed and missing
// cells, and produces an aggregate byte-identical to an uninterrupted
// run — cell seeds are fixed at expansion and the accumulator
// canonicalizes, so it cannot matter which cells came from disk.
package campaign

import (
	"bufio"
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sync"
	"syscall"

	"repro/internal/profiling"
)

// ManifestName is the journal manifest file inside the journal
// directory.
const ManifestName = "campaign.journal"

// JournalVersion versions the manifest format.
const JournalVersion = 1

// journalHeader is the manifest's first line: everything needed to
// re-expand and validate the campaign on resume without re-specifying
// any flags.
type journalHeader struct {
	Version    int    `json:"journal_version"`
	Name       string `json:"name,omitempty"`
	Seed       uint64 `json:"seed"`
	Cells      int    `json:"cells"`
	MatrixHash string `json:"matrix_hash"`
	Matrix     Matrix `json:"matrix"`
}

// journalEntry is one per-cell event line. The last entry for a cell
// wins, so a resumed run simply appends fresh outcomes.
type journalEntry struct {
	Cell     string `json:"cell"`
	Index    int    `json:"index"`
	Status   string `json:"status"` // "done" or "failed"
	Attempts int    `json:"attempts"`
	Class    string `json:"class,omitempty"`
	Error    string `json:"error,omitempty"`
	// CRC cross-records the CRC-32 of the persisted report file's body,
	// so the manifest and the report validate each other on resume.
	CRC string `json:"crc32,omitempty"`
}

// journal appends per-cell outcomes to the manifest and persists
// completed reports. Safe for concurrent use by the worker pool.
type journal struct {
	dir string
	mu  sync.Mutex
	f   *os.File
}

// MatrixHash fingerprints the canonical expansion (every cell's ID,
// index, and fully resolved run configuration including derived seeds),
// so resume — and a shard worker handed a matrix over a process
// boundary — detects any drift between two views of the campaign.
func MatrixHash(cells []Cell) string {
	b, err := json.Marshal(cells)
	if err != nil {
		// Cells contain only marshalable fields; this cannot happen.
		panic(fmt.Sprintf("campaign: marshal cells: %v", err))
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

// WriteFileAtomic writes through a temp file in the target's directory
// and renames it into place, so readers — and crash recovery — only
// ever observe absent-or-complete files, never a torn write. The
// journal and every tcfleet file output go through it. After the
// rename, the parent directory is fsync'd: the rename lives in the
// directory entry, and without the dirent barrier a power loss could
// forget the rename itself, leaving neither old nor new name even
// though the data pages survived.
//
// The temp file's data is deliberately not fsync'd: rename atomicity
// already covers every process-level crash, and after a power loss a
// journal-written report that lost pages fails its CRC-32 verification
// on resume and is simply re-run — detection plus re-execution is
// cheaper than paying a data fsync per cell on the campaign hot path
// (the manifest append, the actual write-ahead barrier, does fsync).
func WriteFileAtomic(path string, write func(w io.Writer) error) error {
	dir := filepath.Dir(path)
	tmp, err := os.CreateTemp(dir, "."+filepath.Base(path)+".tmp-*")
	if err != nil {
		return err
	}
	defer func() {
		if tmp != nil {
			tmp.Close()
			os.Remove(tmp.Name())
		}
	}()
	if err := write(tmp); err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	name := tmp.Name()
	if err := tmp.Close(); err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	tmp = nil
	if err := os.Rename(name, path); err != nil {
		os.Remove(name)
		return err
	}
	return syncDir(dir)
}

// syncDir fsyncs a directory so a just-completed rename survives power
// loss. Filesystems that refuse to sync directories (some network and
// FUSE mounts return EINVAL/ENOTSUP) degrade to the pre-barrier
// behavior rather than failing the write.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	defer d.Close()
	if err := d.Sync(); err != nil && !errors.Is(err, syscall.EINVAL) && !errors.Is(err, syscall.ENOTSUP) {
		return fmt.Errorf("fsync %s: %w", dir, err)
	}
	return nil
}

// openJournal starts a fresh journal in dir for the expanded campaign.
// An existing manifest is refused — silently truncating one would
// destroy the very state a crash-tolerant run exists to preserve;
// resume instead.
func openJournal(dir string, m Matrix, hash string, cells []Cell) (*journal, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	path := filepath.Join(dir, ManifestName)
	f, err := os.OpenFile(path, os.O_CREATE|os.O_EXCL|os.O_WRONLY, 0o644)
	if err != nil {
		if os.IsExist(err) {
			return nil, fmt.Errorf("campaign: journal already exists in %s (resume it, or journal into a fresh directory)", dir)
		}
		return nil, err
	}
	j := &journal{dir: dir, f: f}
	h := journalHeader{
		Version: JournalVersion, Name: m.Name, Seed: m.Seed,
		Cells: len(cells), MatrixHash: hash, Matrix: m,
	}
	if err := j.appendLine(h); err != nil {
		f.Close()
		return nil, err
	}
	return j, nil
}

// readManifest parses the manifest into its header and entries.
func readManifest(dir string) (journalHeader, []journalEntry, error) {
	f, err := os.Open(filepath.Join(dir, ManifestName))
	if err != nil {
		return journalHeader{}, nil, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 0, 64*1024), 1024*1024)
	var h journalHeader
	var entries []journalEntry
	line := 0
	for sc.Scan() {
		line++
		b := sc.Bytes()
		if len(b) == 0 {
			continue
		}
		if line == 1 {
			if err := json.Unmarshal(b, &h); err != nil {
				return h, nil, fmt.Errorf("campaign: %s/%s: bad header: %w", dir, ManifestName, err)
			}
			if h.Version == 0 || h.Version > JournalVersion {
				return h, nil, fmt.Errorf("campaign: %s/%s: journal version %d not supported (max %d)",
					dir, ManifestName, h.Version, JournalVersion)
			}
			continue
		}
		var e journalEntry
		if err := json.Unmarshal(b, &e); err != nil {
			// A torn trailing line is the expected crash artifact: the
			// cell it would have recorded simply re-runs.
			continue
		}
		entries = append(entries, e)
	}
	if err := sc.Err(); err != nil {
		return h, nil, err
	}
	if line == 0 {
		return h, nil, fmt.Errorf("campaign: %s/%s: empty manifest", dir, ManifestName)
	}
	return h, entries, nil
}

// LoadJournalMatrix reads the matrix stored in a journal manifest, so
// "tcfleet run -resume dir" reconstructs the campaign with no other
// flags.
func LoadJournalMatrix(dir string) (Matrix, error) {
	h, _, err := readManifest(dir)
	if err != nil {
		return Matrix{}, err
	}
	return h.Matrix, nil
}

// resumeJournal validates the manifest in dir against the expanded
// matrix and loads every journaled-complete cell's verified report.
// Cells whose report is missing, torn, or checksum-inconsistent are
// surfaced as warnings and left for re-execution — resume degrades to
// re-running a cell, never to trusting corrupt data.
func resumeJournal(dir string, hash string, cells []Cell) (*journal, map[int]*profiling.RunReport, []string, error) {
	h, entries, err := readManifest(dir)
	if err != nil {
		return nil, nil, nil, err
	}
	if h.MatrixHash != hash || h.Cells != len(cells) {
		return nil, nil, nil, fmt.Errorf("campaign: journal in %s was written for a different matrix (%d cells, hash %.12s; this campaign expands to %d cells, hash %.12s)",
			dir, h.Cells, h.MatrixHash, len(cells), hash)
	}
	// Last entry per cell wins; validate identity as we fold.
	latest := map[int]journalEntry{}
	for _, e := range entries {
		if e.Index < 0 || e.Index >= len(cells) || cells[e.Index].ID != e.Cell {
			return nil, nil, nil, fmt.Errorf("campaign: journal in %s records unknown cell %q (index %d)",
				dir, e.Cell, e.Index)
		}
		latest[e.Index] = e
	}
	resumed := map[int]*profiling.RunReport{}
	var warns []string
	for idx := range cells {
		e, ok := latest[idx]
		if !ok || e.Status != "done" {
			continue
		}
		path := filepath.Join(dir, e.Cell+".json")
		data, err := os.ReadFile(path)
		if err != nil {
			warns = append(warns, fmt.Sprintf("cell %s journaled done but report unreadable (%v); re-running", e.Cell, err))
			continue
		}
		body, crc, summed, err := profiling.VerifySummed(data)
		if err != nil || !summed {
			warns = append(warns, fmt.Sprintf("cell %s report failed checksum verification (%v); re-running", e.Cell, err))
			continue
		}
		if got := fmt.Sprintf("%08x", crc); got != e.CRC {
			warns = append(warns, fmt.Sprintf("cell %s report CRC %s does not match manifest %s; re-running", e.Cell, got, e.CRC))
			continue
		}
		r, err := profiling.ReadRunReport(bytes.NewReader(body))
		if err != nil {
			warns = append(warns, fmt.Sprintf("cell %s report unparsable (%v); re-running", e.Cell, err))
			continue
		}
		resumed[idx] = r
	}
	f, err := os.OpenFile(filepath.Join(dir, ManifestName), os.O_APPEND|os.O_WRONLY, 0o644)
	if err != nil {
		return nil, nil, nil, err
	}
	return &journal{dir: dir, f: f}, resumed, warns, nil
}

// recordDone persists the cell's report atomically (with its embedded
// CRC-32 trailer) and then appends the manifest line — in that order,
// so a manifest "done" entry always implies a verifiable report file.
func (j *journal) recordDone(cell Cell, attempts int, r *profiling.RunReport) error {
	b, crc, err := r.EncodeSummed()
	if err != nil {
		return err
	}
	path := filepath.Join(j.dir, cell.ID+".json")
	if err := WriteFileAtomic(path, func(w io.Writer) error {
		_, werr := w.Write(b)
		return werr
	}); err != nil {
		return err
	}
	return j.appendLine(journalEntry{
		Cell: cell.ID, Index: cell.Index, Status: "done",
		Attempts: attempts, CRC: fmt.Sprintf("%08x", crc),
	})
}

// recordFailed appends the classified failure, so resume re-runs the
// cell and operators can audit what went wrong and how often.
func (j *journal) recordFailed(ce CellError) error {
	return j.appendLine(journalEntry{
		Cell: ce.Cell.ID, Index: ce.Cell.Index, Status: "failed",
		Attempts: ce.Attempts, Class: string(ce.Class), Error: ce.Err.Error(),
	})
}

// appendLine marshals v onto its own manifest line and fsyncs.
func (j *journal) appendLine(v any) error {
	b, err := json.Marshal(v)
	if err != nil {
		return err
	}
	b = append(b, '\n')
	j.mu.Lock()
	defer j.mu.Unlock()
	if _, err := j.f.Write(b); err != nil {
		return err
	}
	return j.f.Sync()
}

// Close releases the manifest handle.
func (j *journal) Close() error {
	if j == nil || j.f == nil {
		return nil
	}
	return j.f.Close()
}
