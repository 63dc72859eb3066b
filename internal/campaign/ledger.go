// Ledger: the one campaign driver. A campaign is expand → journal
// (open fresh, or resume and preload) → execute → aggregate, and only
// the execute step differs between the in-process worker pool and the
// sharded supervisor (package shard). RunWith owns every other step;
// an Executor only runs cells and feeds each verdict into the Ledger —
// Complete for a report, Fail for a terminal failure. The ledger
// journals before it aggregates and keeps every cell exactly-once (a
// replayed report is a duplicate, the first verdict wins), so the
// aggregate cannot depend on which executor ran a cell, how often, or
// in which order.
//
// The ledger is also the campaign's one record of what happened: a
// row per cell and a row per shard, each statistic counted once under
// one lock. Result, the /status scoreboard and the campaign_* registry
// metrics are views of that record, never copies kept beside it.
package campaign

import (
	"context"
	"fmt"
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
	// complete or failed, or ctx fires. It sets Result.Workers; every
	// other Result field is read from the ledger's record.
	Execute(ctx context.Context, l *Ledger, res *Result)
}

// Ledger is the campaign-tier record of every cell's state and every
// shard's supervision history. It writes the journal, when the
// campaign has one, and the fleet aggregate. Safe for concurrent use,
// provided each cell is reported by one goroutine at a time — true of
// both executors, which own every cell they run.
type Ledger struct {
	opt   *Options
	name  string
	cells []Cell
	index map[int]int // cell index → position in cells and recs
	jr    *journal
	acc   *profiling.Accumulator

	mu      sync.Mutex
	start   time.Time // when execution began, for the rates
	recs    []cellRec
	shards  []shardRec
	metrics []metric
	warns   []string
}

// cellRec is one cell's row in the record.
type cellRec struct {
	state    CellState
	attempts int        // attempts started by the in-process pool
	timeouts int        // attempts the watchdog stopped
	shard    int        // shard the cell is assigned to; -1 in-process
	cycles   uint64     // simulated cycles of its report, once complete
	err      *CellError // the terminal verdict, once failed
}

// shardRec is one shard ordinal's row in the record, across its spawns.
type shardRec struct {
	pid    int
	alive  bool
	done   int           // cells completed from its streams
	silent time.Duration // heartbeat periods without a line, as time
	note   string        // most recent supervision verdict or anomaly
	n      [numShardStats]int
}

// ShardStat names one of a shard's supervision counts.
type ShardStat int

const (
	ShardRestarts ShardStat = iota // respawns decided after a failed spawn
	ShardHangs                     // spawns killed as hung
	ShardCrashes                   // spawns that failed to start or exited nonzero
	ShardTorn                      // torn or unreadable records dropped at ingest
	ShardDup                       // duplicate records dropped at ingest
	ShardOrphans                   // records for cells the spawn does not own
	numShardStats
)

// shardStatNames are the campaign_shard_<name> counters, by ShardStat.
var shardStatNames = [numShardStats]string{"restarts", "hangs", "crashes", "torn_records", "dup_cells", "orphan_cells"}

// settled reports whether a cell in state s has its verdict.
func (s CellState) settled() bool { return s == CellDone || s == CellFailed || s == CellResumed }

func newLedger(name string, cells []Cell, opt *Options) *Ledger {
	if opt.Status == nil {
		opt.Status = NewStatus(nil)
	}
	l := &Ledger{
		opt:   opt,
		name:  name,
		cells: cells,
		index: make(map[int]int, len(cells)),
		acc:   profiling.NewAccumulator(),
		recs:  make([]cellRec, len(cells)),
	}
	for i, c := range cells {
		l.index[c.Index] = i
		l.recs[i] = cellRec{state: CellPending, shard: -1}
	}
	l.mu.Lock()
	defer l.unlock()
	l.addCounter("campaign_cells_total", func(*tally) float64 { return float64(len(cells)) })
	l.addCounter("campaign_sessions_done", func(t *tally) float64 { return float64(t.cells[CellDone]) })
	l.addCounter("campaign_sessions_failed", func(t *tally) float64 { return float64(t.cells[CellFailed]) })
	opt.Status.l.Store(l)
	opt.Status.events.Appendf("campaign_begin", -1, "", "%q: %d cells", name, len(cells))
	return l
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
	l := newLedger(m.Name, cells, &opt)
	if opt.JournalDir != "" {
		jSpan := opt.Tracer.Start("journal", "campaign")
		err := l.openJournal(m)
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

// openJournal starts a fresh journal, or resumes one: the journal is
// validated against this expansion and every journaled-complete report
// is preloaded as a resumed cell.
func (l *Ledger) openJournal(m Matrix) error {
	if !l.opt.Resume {
		jr, err := createJournal(l.opt.JournalDir, m, l.cells)
		l.jr = jr
		return err
	}
	jr, jd, err := resumeJournal(l.opt.JournalDir, l.cells)
	if err != nil {
		return err
	}
	l.jr = jr
	l.resume(jd)
	return nil
}

// resume marks the journaled-complete cells resumed and adds their
// reports to the aggregate, in index order, so the cell_resumed events
// repeat from run to run.
func (l *Ledger) resume(jd *Journaled) {
	l.mu.Lock()
	defer l.unlock()
	l.warns = append(l.warns, jd.Warnings...)
	l.addCounter("campaign_resume_skips", func(t *tally) float64 { return float64(t.cells[CellResumed]) })
	for i, cell := range l.cells {
		rep := jd.Reports[i]
		if rep == nil {
			continue
		}
		l.acc.Add(cell.ID, rep)
		l.recs[i].state, l.recs[i].cycles = CellResumed, rep.Cycles
		l.opt.Status.events.Append("cell_resumed", -1, cell.ID, "")
	}
}

// execute runs ex under the campaign's "execute" span and records the
// wall time.
func (l *Ledger) execute(ctx context.Context, ex Executor, res *Result) {
	span := l.opt.Tracer.Start("execute", "campaign")
	l.mu.Lock()
	l.start = time.Now()
	l.mu.Unlock()
	ex.Execute(ctx, l, res)
	res.Wall = time.Since(l.start)
	span.End()
}

// settle reads the Result fields of the record: the totals, the
// errors in index order and the journal warnings.
func (l *Ledger) settle(ctx context.Context, res *Result) {
	l.mu.Lock()
	defer l.mu.Unlock()
	t := l.tally()
	res.Canceled = ctx.Err() != nil
	res.Completed = t.cells[CellDone] + t.cells[CellResumed]
	res.Failed = t.cells[CellFailed]
	res.Resumed = t.cells[CellResumed]
	res.Retried = t.retries
	res.Restarts = t.shard[ShardRestarts]
	res.Torn = t.shard[ShardTorn]
	res.Dup = t.shard[ShardDup]
	res.SimCycles = t.cycles
	res.Warnings = l.warns
	for _, c := range l.recs {
		if c.err != nil {
			res.Errors = append(res.Errors, *c.err)
		}
	}
}

// Cells returns the campaign's expanded cells, in index order.
func (l *Ledger) Cells() []Cell { return l.cells }

// rec returns the row of the cell with expansion index idx; l.mu is
// held.
func (l *Ledger) rec(idx int) *cellRec { return &l.recs[l.index[idx]] }

// pending returns the cells neither complete nor failed.
func (l *Ledger) pending() []Cell {
	l.mu.Lock()
	defer l.mu.Unlock()
	var out []Cell
	for i, cell := range l.cells {
		if !l.recs[i].state.settled() {
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
		if !l.rec(idx).state.settled() {
			out = append(out, idx)
		}
	}
	return out
}

// Complete records a cell's report with the attempt count the journal
// should carry. The journal comes first: a report that cannot be
// persisted is not complete, and the error goes back to the executor,
// whose policy decides what happens to the cell. Then OnReport, the
// aggregate and the record. A report for a cell that already has its
// verdict — a record replayed across a respawn — is dropped and
// reported as a duplicate.
func (l *Ledger) Complete(cell Cell, attempts int, rep *profiling.RunReport) (dup bool, err error) {
	l.mu.Lock()
	dup = l.rec(cell.Index).state.settled()
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
	defer l.unlock()
	c := l.rec(cell.Index)
	c.state, c.cycles = CellDone, rep.Cycles
	if c.shard >= 0 {
		l.shards[c.shard].done++
	}
	l.opt.Status.events.Append("cell_done", c.shard, cell.ID, "")
	return false, nil
}

// Fail records a cell's terminal failure, then journals it; a failure
// the journal cannot take becomes a warning. The first verdict for a
// cell wins, and a complete cell stays complete.
func (l *Ledger) Fail(ce CellError) {
	l.mu.Lock()
	c := l.rec(ce.Cell.Index)
	if c.state.settled() {
		l.mu.Unlock()
		return
	}
	c.state, c.err = CellFailed, &ce
	l.opt.Status.events.Appendf("cell_failed", c.shard, ce.Cell.ID, "[%s] %v", ce.Class, ce.Err)
	l.unlock()
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

// started records the start of an in-process attempt of cell.
func (l *Ledger) started(cell Cell, attempt int) {
	l.mu.Lock()
	defer l.unlock()
	c := l.rec(cell.Index)
	c.state, c.attempts = CellRunning, attempt
	if attempt == 1 {
		l.opt.Status.events.Append("cell_start", c.shard, cell.ID, "")
	} else {
		l.opt.Status.events.Appendf("cell_start", c.shard, cell.ID, "attempt %d", attempt)
	}
}

// retrying records a transient failure of cell's attempt that will be
// retried after its backoff.
func (l *Ledger) retrying(cell Cell, attempt int, err error) {
	l.mu.Lock()
	defer l.unlock()
	c := l.rec(cell.Index)
	c.state = CellRetrying
	l.opt.Status.events.Appendf("cell_retry", c.shard, cell.ID, "attempt %d: %v", attempt, err)
}

// timedOut counts an attempt of cell stopped by the watchdog.
func (l *Ledger) timedOut(cell Cell) {
	l.mu.Lock()
	defer l.unlock()
	l.rec(cell.Index).timeouts++
}

// addPoolViews publishes the in-process pool's views: the rates of the
// cells completed in this run, over the execution so far, and the
// per-cell supervisor's retry, panic and watchdog counts.
func (l *Ledger) addPoolViews() {
	l.mu.Lock()
	defer l.unlock()
	rate := func(t *tally, n float64) float64 {
		elapsed := time.Since(l.start).Seconds()
		if t.cells[CellDone] == 0 || elapsed <= 0 {
			return 0 // no cell completed here yet
		}
		return n / elapsed
	}
	l.addGauge("campaign_sessions_per_sec", func(t *tally) float64 { return rate(t, float64(t.cells[CellDone])) })
	l.addGauge("campaign_sim_cycles_per_sec", func(t *tally) float64 { return rate(t, float64(t.ranCycles)) })
	l.addCounter("campaign_retries", func(t *tally) float64 { return float64(t.retries) })
	l.addCounter("campaign_panics", func(t *tally) float64 { return float64(t.panics) })
	l.addCounter("campaign_timeouts", func(t *tally) float64 { return float64(t.timeouts) })
}

// AddShards gives the record one row per shard ordinal 0..n-1 and
// publishes their views. The sharded supervisor calls it once, before
// any spawn.
func (l *Ledger) AddShards(n int) {
	l.mu.Lock()
	defer l.unlock()
	l.shards = make([]shardRec, n)
	for st, name := range shardStatNames {
		l.addCounter("campaign_shard_"+name, func(t *tally) float64 { return float64(t.shard[st]) })
	}
	for si := range l.shards {
		sh := &l.shards[si]
		prefix := fmt.Sprintf("campaign_shard%02d_", si)
		l.addGauge(prefix+"alive", func(*tally) float64 {
			if sh.alive {
				return 1
			}
			return 0
		})
		l.addGauge(prefix+"restarts", func(*tally) float64 { return float64(sh.n[ShardRestarts]) })
		l.addGauge(prefix+"cells_done", func(*tally) float64 { return float64(sh.done) })
		l.addGauge(prefix+"hb_age_sec", func(*tally) float64 { return sh.silent.Seconds() })
	}
}

// ShardCount adds n to one of shard si's supervision counts.
func (l *Ledger) ShardCount(si int, st ShardStat, n int) {
	l.mu.Lock()
	defer l.unlock()
	l.shards[si].n[st] += n
}

// ShardNote makes an anomaly (torn records, a dup record, a failed
// handshake...) shard si's last note and a flight-recorder event.
func (l *Ledger) ShardNote(si int, kind, detail string) {
	l.mu.Lock()
	defer l.unlock()
	l.shards[si].note = kind
	l.opt.Status.events.Append(kind, si, "", detail)
}

// ShardSpawned records a live worker for shard si that now owns cells:
// they are attributed to the shard and the still-pending ones become
// running. The state machine is therefore shard-granular for worker
// cells — the supervisor only learns of per-cell completion when the
// record lands.
func (l *Ledger) ShardSpawned(si, pid int, cells []int) {
	l.mu.Lock()
	defer l.unlock()
	sh := &l.shards[si]
	sh.pid, sh.alive, sh.silent = pid, true, 0
	kind := "shard_spawn"
	if sh.n[ShardRestarts] > 0 {
		kind = "shard_respawn"
	}
	l.opt.Status.events.Appendf(kind, si, "", "pid %d, %d cells", pid, len(cells))
	for _, idx := range cells {
		c := l.rec(idx)
		c.shard = si
		if c.state == CellPending {
			c.state = CellRunning
		}
	}
}

// ShardSilent records how long shard si's live worker has sent
// nothing, as the supervisor's hang count reads it: silent heartbeat
// periods times the period. The supervisor sets it once per tick.
func (l *Ledger) ShardSilent(si int, age time.Duration) {
	l.mu.Lock()
	defer l.unlock()
	l.shards[si].silent = age
}

// ShardDown records a worker exit with the supervisor's verdict
// ("clean exit", "crash", "hang", ...). Cells the dead shard was
// running revert to pending — no one executes them until a respawn
// claims them again.
func (l *Ledger) ShardDown(si int, verdict string) {
	l.mu.Lock()
	defer l.unlock()
	sh := &l.shards[si]
	sh.alive, sh.note = false, verdict
	for i := range l.recs {
		if c := &l.recs[i]; c.shard == si && c.state == CellRunning {
			c.state = CellPending
		}
	}
	l.opt.Status.events.Append("shard_down", si, "", verdict)
}

// tally is one pass over the record: the totals its views read.
type tally struct {
	cells     map[CellState]int // cells per state
	cycles    uint64            // simulated cycles of the complete cells
	ranCycles uint64            // of the cells completed in this run
	retries   int               // attempts beyond each cell's first
	timeouts  int
	panics    int // cells failed by a panic
	shard     [numShardStats]int
}

// tally sums the record; l.mu is held.
func (l *Ledger) tally() tally {
	t := tally{cells: map[CellState]int{}}
	for _, c := range l.recs {
		t.cells[c.state]++
		t.cycles += c.cycles
		if c.state == CellDone {
			t.ranCycles += c.cycles
		}
		t.retries += max(c.attempts-1, 0)
		t.timeouts += c.timeouts
		if c.err != nil && c.err.Class == ClassPanic {
			t.panics++
		}
	}
	for _, sh := range l.shards {
		for st, n := range sh.n {
			t.shard[st] += n
		}
	}
	return t
}

// metric is one campaign_* registry view of the record: a counter or a
// gauge, and its read of the tally. A counter grows by what its read
// gained since the last publish.
type metric struct {
	counter *obs.Counter
	gauge   *obs.Gauge
	read    func(*tally) float64
	last    uint64
}

// addCounter and addGauge register a view; l.mu is held. Without a
// registry there is nothing to publish.
func (l *Ledger) addCounter(name string, read func(*tally) float64) {
	if reg := l.opt.Obs; reg != nil {
		l.metrics = append(l.metrics, metric{counter: reg.Counter(name), read: read})
	}
}

func (l *Ledger) addGauge(name string, read func(*tally) float64) {
	if reg := l.opt.Obs; reg != nil {
		l.metrics = append(l.metrics, metric{gauge: reg.Gauge(name), read: read})
	}
}

// unlock publishes every registry view of the record and releases
// l.mu. Every change to the record ends here: this is the one site
// that writes a campaign_* metric of the record.
func (l *Ledger) unlock() {
	if len(l.metrics) > 0 {
		t := l.tally()
		for i := range l.metrics {
			m := &l.metrics[i]
			v := m.read(&t)
			if m.gauge != nil {
				m.gauge.Set(v)
				continue
			}
			m.counter.Add(uint64(v) - m.last)
			m.last = uint64(v)
		}
	}
	l.mu.Unlock()
}
