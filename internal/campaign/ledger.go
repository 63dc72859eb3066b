// Ledger: the one campaign driver. A campaign is expand → journal
// (open fresh, or resume and preload) → execute → aggregate, and only
// the execute step differs between the in-process worker pool and the
// sharded supervisor (package shard). RunWith owns every other step;
// an Executor only runs cells and feeds each verdict into the Ledger —
// Complete for a report, Fail for a terminal failure. The ledger
// journals before it aggregates and keeps every cell exactly-once (a
// replayed report is a duplicate, the first failure verdict wins), so
// the aggregate cannot depend on which executor ran a cell, how often,
// or in which order.
package campaign

import (
	"context"
	"fmt"
	"sort"
	"sync"
	"time"

	"repro/internal/obs"
	"repro/internal/profiling"
)

// Executor runs a campaign's cells and feeds every outcome into the
// ledger. Run uses the in-process worker pool; the sharded supervisor
// supervises worker processes.
type Executor interface {
	// Execute runs the cells the ledger still lacks until each is
	// complete or failed, or ctx fires. It sets the Result fields that
	// describe execution itself: Workers, Retried, Restarts, Torn, Dup.
	Execute(ctx context.Context, l *Ledger, res *Result)
}

// Ledger is the campaign-tier record of which cells are complete or
// failed. It writes the journal, when the campaign has one, and the
// fleet aggregate. Safe for concurrent use, provided each cell is
// reported by one goroutine at a time — true of both executors, which
// own every cell they run.
type Ledger struct {
	opt     *Options
	cells   []Cell
	jr      *journal
	acc     *profiling.Accumulator
	doneCtr *obs.Counter
	failCtr *obs.Counter
	start   time.Time // when execution began, for throughput gauges

	mu     sync.Mutex
	done   map[int]bool
	failed map[int]CellError
	warns  []string
	cycles uint64
}

func newLedger(cells []Cell, opt *Options) *Ledger {
	return &Ledger{
		opt:     opt,
		cells:   cells,
		acc:     profiling.NewAccumulator(),
		doneCtr: opt.Obs.Counter("campaign_sessions_done"),
		failCtr: opt.Obs.Counter("campaign_sessions_failed"),
		done:    map[int]bool{},
		failed:  map[int]CellError{},
	}
}

// RunWith is the campaign driver: it expands the matrix, opens or
// resumes the journal, hands the cells to ex, and finalizes the fleet
// aggregate. It returns an error only for an unusable matrix or
// journal; per-cell failures land in Result.Errors. Run is RunWith over
// the in-process worker pool.
func RunWith(ctx context.Context, m Matrix, opt Options, ex Executor) (*Result, error) {
	expSpan := opt.Tracer.Start("expand", "campaign")
	cells, err := m.Expand()
	expSpan.End()
	if err != nil {
		return nil, err
	}
	res := &Result{Cells: len(cells)}
	opt.Obs.Counter("campaign_cells_total").Add(uint64(len(cells)))
	opt.Status.Begin(m.Name, cells)
	l := newLedger(cells, &opt)
	if opt.JournalDir != "" {
		jSpan := opt.Tracer.Start("journal", "campaign")
		err := l.openJournal(m, res)
		jSpan.End()
		if err != nil {
			return nil, err
		}
		defer l.jr.Close()
	}
	l.execute(ctx, ex, res)
	l.settle(ctx, res)
	if res.Completed > 0 {
		aggSpan := opt.Tracer.Start("aggregate", "campaign")
		res.Profile, err = l.acc.Finalize()
		aggSpan.End()
		if err != nil {
			return nil, err
		}
	}
	return res, nil
}

// openJournal starts a fresh journal, or resumes one: the manifest is
// validated against this expansion and every journaled-complete report
// is preloaded, in index order, as a complete cell.
func (l *Ledger) openJournal(m Matrix, res *Result) error {
	hash := MatrixHash(l.cells)
	if !l.opt.Resume {
		jr, err := openJournal(l.opt.JournalDir, m, hash, l.cells)
		l.jr = jr
		return err
	}
	jr, resumed, warns, err := resumeJournal(l.opt.JournalDir, hash, l.cells)
	if err != nil {
		return err
	}
	l.jr, l.warns = jr, warns
	skips := l.opt.Obs.Counter("campaign_resume_skips")
	for _, cell := range l.cells {
		rep, ok := resumed[cell.Index]
		if !ok {
			continue
		}
		l.acc.Add(cell.ID, rep)
		l.done[cell.Index] = true
		l.cycles += rep.Cycles
		skips.Inc()
		res.Resumed++
		l.opt.Status.CellResumedFromJournal(cell.Index, rep.Cycles)
	}
	return nil
}

// execute runs ex under the campaign's "execute" span and records the
// wall time.
func (l *Ledger) execute(ctx context.Context, ex Executor, res *Result) {
	span := l.opt.Tracer.Start("execute", "campaign")
	l.start = time.Now()
	ex.Execute(ctx, l, res)
	res.Wall = time.Since(l.start)
	span.End()
}

// settle copies the ledger's totals into res, errors in index order.
func (l *Ledger) settle(ctx context.Context, res *Result) {
	l.mu.Lock()
	defer l.mu.Unlock()
	res.Canceled = ctx.Err() != nil
	res.Completed = len(l.done)
	res.SimCycles = l.cycles
	res.Warnings = l.warns
	for _, ce := range l.failed {
		res.Errors = append(res.Errors, ce)
	}
	sort.Slice(res.Errors, func(i, j int) bool { return res.Errors[i].Cell.Index < res.Errors[j].Cell.Index })
	res.Failed = len(res.Errors)
}

// Cells returns the campaign's expanded cells, in index order.
func (l *Ledger) Cells() []Cell { return l.cells }

// settled reports whether cell idx is complete or failed; l.mu is held.
func (l *Ledger) settled(idx int) bool {
	_, failed := l.failed[idx]
	return failed || l.done[idx]
}

// pending returns the cells neither complete nor failed.
func (l *Ledger) pending() []Cell {
	l.mu.Lock()
	defer l.mu.Unlock()
	var out []Cell
	for _, cell := range l.cells {
		if !l.settled(cell.Index) {
			out = append(out, cell)
		}
	}
	return out
}

// Remaining returns the given cell indices that are neither complete
// nor failed.
func (l *Ledger) Remaining(indices []int) []int {
	l.mu.Lock()
	defer l.mu.Unlock()
	var out []int
	for _, idx := range indices {
		if !l.settled(idx) {
			out = append(out, idx)
		}
	}
	return out
}

// progress returns the completed-cell count and their simulated cycles.
func (l *Ledger) progress() (int, uint64) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return len(l.done), l.cycles
}

// Complete records a cell's report with the attempt count the journal
// should carry. The journal comes first: a report that cannot be
// persisted is not complete, and the error goes back to the executor,
// whose policy decides what happens to the cell. Then OnReport, the
// scoreboard, the counters and the aggregate. A report for a cell that
// is already complete — a record replayed across a respawn — is
// dropped and reported as a duplicate.
func (l *Ledger) Complete(cell Cell, attempts int, rep *profiling.RunReport) (dup bool, err error) {
	l.mu.Lock()
	dup = l.done[cell.Index]
	l.mu.Unlock()
	if dup {
		return true, nil
	}
	if l.jr != nil {
		if err := l.jr.recordDone(cell, attempts, rep); err != nil {
			return false, err
		}
	}
	if l.opt.OnReport != nil {
		l.opt.OnReport(cell, rep)
	}
	l.acc.Add(cell.ID, rep)
	l.mu.Lock()
	l.done[cell.Index] = true
	l.cycles += rep.Cycles
	l.mu.Unlock()
	l.doneCtr.Inc()
	l.opt.Status.CellCompleted(cell.Index, rep.Cycles)
	return false, nil
}

// Fail records a cell's terminal failure on the scoreboard, the
// counters and the journal; a failure the journal cannot take becomes
// a warning. The first verdict for a cell wins, and a complete cell
// stays complete.
func (l *Ledger) Fail(ce CellError) {
	idx := ce.Cell.Index
	l.mu.Lock()
	if l.settled(idx) {
		l.mu.Unlock()
		return
	}
	l.failed[idx] = ce
	l.mu.Unlock()
	l.failCtr.Inc()
	l.opt.Status.CellFailedTerminally(idx, ce.Class, ce.Err)
	if l.jr != nil {
		if err := l.jr.recordFailed(ce); err != nil {
			l.Warnf("cell %s: failure not journaled: %v", ce.Cell.ID, err)
		}
	}
}

// Warnf records a non-fatal anomaly for Result.Warnings.
func (l *Ledger) Warnf(format string, args ...any) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.warns = append(l.warns, fmt.Sprintf(format, args...))
}
