// Journal: the campaign's write-ahead persistence layer, one
// append-only file of checksummed lines in the line codec the shard
// stream speaks (line.go). A header line records the matrix and the
// hash of its expansion; then, as cells finish, one "cell" line per
// completed cell carries its report and one "fail" line per failed
// cell its classified verdict. Each line is appended and fsync'd
// before the cell counts as done, so a crash or SIGKILL at any point
// loses at most the cells that were mid-flight. Resume validates the
// header against the re-expanded matrix, takes each cell's last
// verified line, truncates a torn tail, re-runs failed and missing
// cells, and produces an aggregate byte-identical to an uninterrupted
// run — cell seeds are fixed at expansion and the accumulator
// canonicalizes, so it cannot matter which cells came from disk.
package campaign

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sync"

	"repro/internal/profiling"
)

// JournalName is the journal file inside the journal directory.
const JournalName = "campaign.journal"

// JournalVersion versions the journal format.
const JournalVersion = 2

// journal appends lines to the journal file. Safe for concurrent use
// by the worker pool.
type journal struct {
	mu  sync.Mutex
	f   *os.File
	end int64 // offset just past the last whole line
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

// createJournal starts a fresh journal in dir for the expanded
// campaign. An existing journal is refused — silently truncating one
// would destroy the very state a crash-tolerant run exists to
// preserve; resume instead.
func createJournal(dir string, m Matrix, cells []Cell) (*journal, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	f, err := os.OpenFile(filepath.Join(dir, JournalName), os.O_CREATE|os.O_EXCL|os.O_WRONLY, 0o644)
	if err != nil {
		if os.IsExist(err) {
			return nil, fmt.Errorf("campaign: journal already exists in %s (resume it, or journal into a fresh directory)", dir)
		}
		return nil, err
	}
	j := &journal{f: f}
	mj, err := json.Marshal(m)
	if err == nil {
		err = j.append(&Message{Kind: "journal", Version: JournalVersion, Hash: MatrixHash(cells), Matrix: mj})
	}
	if err != nil {
		f.Close()
		return nil, err
	}
	return j, nil
}

// Journaled is what a journal holds for a campaign: each cell's
// verified report, by position in the expansion — nil where the cell
// must run (again) — and the anomalies met reading it.
type Journaled struct {
	Reports  []*profiling.RunReport
	Warnings []string
	end      int64 // offset just past the last whole line
}

// LoadJournalMatrix reads the matrix from the journal header in dir,
// so "tcfleet run -resume dir" reconstructs the campaign with no other
// flags.
func LoadJournalMatrix(dir string) (Matrix, error) {
	f, err := os.Open(filepath.Join(dir, JournalName))
	if err != nil {
		return Matrix{}, err
	}
	defer f.Close()
	h, err := readHeader(NewLineReader(f, MaxLine), dir)
	if err != nil {
		return Matrix{}, err
	}
	var m Matrix
	if err := json.Unmarshal(h.Matrix, &m); err != nil {
		return Matrix{}, fmt.Errorf("campaign: %s/%s: bad matrix: %w", dir, JournalName, err)
	}
	return m, nil
}

// ReadJournal reads the journal in dir for the campaign that expands
// to cells. A missing or corrupt header, another format version or
// another expansion is an error; everything after the header costs at
// most its own cell (see Journaled).
func ReadJournal(dir string, cells []Cell) (*Journaled, error) {
	f, err := os.Open(filepath.Join(dir, JournalName))
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return readJournal(f, dir, cells)
}

// readHeader reads and checks the journal's first line. A version-1
// manifest (plain JSON lines, no checksums) is named as such.
func readHeader(lr *LineReader, dir string) (Message, error) {
	line, err := lr.readLine()
	if err != nil && err != io.EOF {
		return Message{}, err
	}
	h, ok := DecodeLine(line)
	if !ok || h.Kind != "journal" {
		var v1 struct {
			Version int `json:"journal_version"`
		}
		if json.Unmarshal(line, &v1) != nil || v1.Version == 0 {
			return h, fmt.Errorf("campaign: %s/%s: missing or corrupt journal header", dir, JournalName)
		}
		h.Version = v1.Version
	}
	if h.Version != JournalVersion {
		return h, fmt.Errorf("campaign: %s/%s: journal version %d not supported (this build reads version %d)",
			dir, JournalName, h.Version, JournalVersion)
	}
	return h, nil
}

// readJournal folds the journal's lines: for each cell the last
// verified line wins. A torn or corrupt line, a report that does not
// parse and a report whose seed is not its cell's expansion seed are
// dropped with a warning, and the cells they would have completed run
// again.
func readJournal(r io.Reader, dir string, cells []Cell) (*Journaled, error) {
	lr := NewLineReader(r, MaxLine)
	h, err := readHeader(lr, dir)
	if err != nil {
		return nil, err
	}
	if hash := MatrixHash(cells); h.Hash != hash {
		return nil, fmt.Errorf("campaign: journal in %s was written for a different matrix (hash %.12s; this campaign expands to %d cells, hash %.12s)",
			dir, h.Hash, len(cells), hash)
	}
	jd := &Journaled{Reports: make([]*profiling.RunReport, len(cells))}
	for {
		m, err := lr.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, err
		}
		if m.Kind != "cell" && m.Kind != "fail" {
			continue
		}
		if m.Index < 0 || m.Index >= len(cells) {
			jd.Warnings = append(jd.Warnings, fmt.Sprintf("journal line for unknown cell index %d dropped", m.Index))
			continue
		}
		cell := cells[m.Index]
		if m.Kind == "fail" {
			jd.Reports[m.Index] = nil
			continue
		}
		rep, err := profiling.ReadRunReport(bytes.NewReader(m.Report))
		switch {
		case err != nil:
			jd.Warnings = append(jd.Warnings, fmt.Sprintf("cell %s: journaled report unreadable (%v), dropped", cell.ID, err))
		case rep.Seed != cell.Run.Seed:
			jd.Warnings = append(jd.Warnings, fmt.Sprintf("cell %s: journaled report has seed %d, expansion seed %d, dropped",
				cell.ID, rep.Seed, cell.Run.Seed))
		default:
			jd.Reports[m.Index] = rep
		}
	}
	if n := lr.Torn(); n > 0 {
		jd.Warnings = append(jd.Warnings, fmt.Sprintf("%d torn or corrupt journal line(s) dropped", n))
	}
	jd.end = lr.end
	return jd, nil
}

// resumeJournal reads the journal in dir for the expanded campaign and
// opens it for appending, its torn tail (if any) cut back to the last
// whole line so no new line is glued onto a fragment.
func resumeJournal(dir string, cells []Cell) (*journal, *Journaled, error) {
	f, err := os.OpenFile(filepath.Join(dir, JournalName), os.O_RDWR, 0)
	if err != nil {
		return nil, nil, err
	}
	jd, err := readJournal(f, dir, cells)
	if err == nil {
		err = f.Truncate(jd.end)
	}
	if err != nil {
		f.Close()
		return nil, nil, err
	}
	return &journal{f: f, end: jd.end}, jd, nil
}

// recordDone appends the cell's completed line, report included.
func (j *journal) recordDone(cell Cell, attempts int, r *profiling.RunReport) error {
	b, err := json.Marshal(r)
	if err != nil {
		return err
	}
	return j.append(&Message{Kind: "cell", Index: cell.Index, Attempts: attempts, Report: b})
}

// recordFailed appends the classified failure, so resume re-runs the
// cell and operators can audit what went wrong and how often.
func (j *journal) recordFailed(ce CellError) error {
	return j.append(&Message{Kind: "fail", Index: ce.Cell.Index, Class: ce.Class, Attempts: ce.Attempts, Error: ce.Err.Error()})
}

// append writes m's line at the end of the journal and fsyncs: the
// write-ahead barrier. After a failed write the fragment is cut off
// and the next line goes to the same offset, so no line glues onto
// one.
func (j *journal) append(m *Message) error {
	line, err := AppendLine(nil, m)
	if err != nil {
		return err
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	if _, err := j.f.WriteAt(line, j.end); err != nil {
		// Best effort: a fragment holds no newline, so later lines
		// overwrite it and resume cuts off whatever is left.
		_ = j.f.Truncate(j.end)
		return err
	}
	j.end += int64(len(line))
	return j.f.Sync()
}

// Close releases the journal file.
func (j *journal) Close() error {
	if j == nil || j.f == nil {
		return nil
	}
	return j.f.Close()
}
