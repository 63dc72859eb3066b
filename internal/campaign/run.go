package campaign

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"time"

	"repro/internal/obs"
	"repro/internal/profiling"
	"repro/internal/soc"
	"repro/internal/workload"
)

// Options tunes campaign execution. The zero value runs with GOMAXPROCS
// workers, no instrumentation, no supervision limits, and no journal.
type Options struct {
	// Workers bounds the worker pool; <=0 means runtime.GOMAXPROCS(0).
	Workers int
	// Obs receives campaign throughput metrics (sessions done/failed,
	// sessions/sec, simulated cycles/sec, per-worker utilization) and the
	// supervisor counters (retries, panics, timeouts, resume skips). Nil
	// or obs.Disabled switches instrumentation off.
	Obs *obs.Registry
	// Tracer records the campaign phases (expand, journal, execute,
	// aggregate) and one span per cell attempt, for about://tracing
	// inspection.
	Tracer *obs.Tracer
	// OnReport, when set, observes every completed run report as it
	// lands, before aggregation. It is called concurrently from worker
	// goroutines and must be safe for parallel use. Reports loaded from a
	// resumed journal are not re-announced.
	OnReport func(Cell, *profiling.RunReport)
	// CellTimeout is the per-attempt watchdog deadline, enforced with
	// context.WithTimeout so a wedged simulation stops at its next
	// cancellation poll instead of stranding a worker. 0 disables it.
	CellTimeout time.Duration
	// Retries bounds how many times a transiently failed cell is re-run
	// (a cell executes at most Retries+1 times). Only ClassTransient
	// failures — watchdog timeouts, errors wrapped by Transient — are
	// retried; panics and permanent errors fail fast.
	Retries int
	// Status, when set, is bound to the campaign's ledger: it serves the
	// ledger's record on /status, and its event log receives every cell
	// and shard transition. It never influences execution or the
	// aggregate.
	Status *Status
	// JournalDir, when set, write-ahead journals the campaign into this
	// directory: every completed report persisted atomically with a
	// CRC-32 trailer, plus a campaign.journal manifest of per-cell
	// status/attempts, so an interrupted campaign can resume.
	JournalDir string
	// Resume validates the journal already in JournalDir against the
	// expanded matrix, skips journaled-complete cells (their reports are
	// loaded and verified), and re-runs failed and missing ones.
	Resume bool

	// exec overrides cell execution; tests inject panics, hangs, and
	// transient failures through it. Nil means the real runCell.
	exec execFn
	// retryBackoff overrides the base retry delay (defaultRetryBackoff
	// when zero); tests shorten it.
	retryBackoff time.Duration
}

// Result is the outcome of a campaign run.
type Result struct {
	Cells     int           // expanded matrix size
	Completed int           // sessions in the aggregate (executed + resumed)
	Failed    int           // sessions that errored terminally (see Errors)
	Resumed   int           // journaled-complete cells skipped by Resume
	Retried   int           // total extra attempts across all cells
	Restarts  int           // shard worker respawns (sharded campaigns only)
	Torn      int           // torn stream lines dropped at ingest (sharded campaigns only)
	Dup       int           // duplicate records dropped idempotently (sharded campaigns only)
	Canceled  bool          // the context fired before all cells ran
	SimCycles uint64        // total simulated cycles across completed sessions
	Wall      time.Duration // wall-clock duration of the execute phase
	Workers   int           // effective worker count (per shard when sharded)
	// Profile is the canonical fleet aggregate over all completed
	// sessions — the partial aggregate when the campaign was canceled,
	// nil when nothing completed.
	Profile *profiling.FleetProfile
	// Errors lists terminally failed cells in index order, classified and
	// with their attempt counts.
	Errors []CellError
	// Warnings lists non-fatal journal anomalies (corrupt resumed report
	// re-run, manifest append failure) in the order they were noticed.
	Warnings []string
}

// runCell executes one expanded cell end to end: build the SoC twin and
// workload, run the measurement under ctx, drain and assemble the
// profile, and emit the machine-readable run report.
func runCell(ctx context.Context, cell Cell) (*profiling.RunReport, error) {
	return runCellWith(ctx, cell, nil)
}

// runCellWith is runCell with a hook applied to the freshly built SoC
// before the session runs; the wake-scheduler determinism test uses it to
// force the reference (unscheduled) kernel mode per cell.
func runCellWith(ctx context.Context, cell Cell, tune func(*soc.SoC)) (*profiling.RunReport, error) {
	cfg, err := cell.Run.SoCConfig()
	if err != nil {
		return nil, err
	}
	cfg = cfg.WithED()
	spec, ok := workload.Mix(cell.Mix, cell.Run.Seed)
	if !ok {
		return nil, fmt.Errorf("unknown workload mix %q", cell.Mix)
	}
	s := soc.New(cfg, cell.Run.Seed)
	if tune != nil {
		tune(s)
	}
	app, err := workload.Build(s, spec)
	if err != nil {
		return nil, err
	}
	params := append(profiling.StandardParams(), profiling.PCPParams()...)
	profSpec, err := cell.Run.SessionSpec(params)
	if err != nil {
		return nil, err
	}
	sess := profiling.NewSession(s, profSpec)
	if err := sess.Run(ctx, app, cell.Run.Cycles); err != nil {
		return nil, err
	}
	prof, err := sess.Result(spec.Name)
	if err != nil {
		return nil, err
	}
	return sess.RunReport(prof, cell.Run.Seed), nil
}

// Run expands the matrix and executes every cell across the worker
// pool under the supervisor, streaming completed reports into the
// fleet aggregator (and the journal, when enabled). It returns an
// error only for an unusable matrix or journal; per-cell failures are
// classified and collected in Result.Errors. When ctx is canceled,
// in-flight sessions stop at the next cancellation poll, pending cells
// are skipped, and the reports gathered so far are flushed into a
// partial aggregate.
//
// For a full (uncanceled) campaign the resulting Profile is
// byte-identical for any worker count — and across any
// interrupt/resume split: cell seeds are fixed at expansion time and
// the aggregator canonicalizes its output, so it cannot matter which
// cells were loaded from the journal and which were executed.
func Run(ctx context.Context, m Matrix, opt Options) (*Result, error) {
	return RunWith(ctx, m, opt, pool{})
}

// RunCells executes an explicit, already-expanded cell subset under the
// full supervisor policy — panic isolation, watchdog deadlines, and
// classified retries. It is the shard worker's entry point: the cells
// keep the indices and derived seeds their coordinating campaign
// expanded, so a report computed here is byte-identical to one computed
// in-process. Journaling and aggregation stay with the coordinating
// campaign, so JournalDir/Resume are rejected and Result.Profile is
// always nil.
func RunCells(ctx context.Context, cells []Cell, opt Options) (*Result, error) {
	if opt.JournalDir != "" || opt.Resume {
		return nil, fmt.Errorf("campaign: RunCells does not journal (the coordinating campaign owns the journal)")
	}
	res := &Result{Cells: len(cells)}
	l := newLedger("", cells, &opt)
	l.execute(ctx, pool{}, res)
	l.settle(ctx, res)
	return res, nil
}

// pool is the in-process executor: a bounded pool of goroutines, each
// running one cell at a time under the per-cell supervisor.
type pool struct{}

// Execute runs the ledger's pending cells, fed in index order.
// Workers <= 0 means GOMAXPROCS. The journal records each cell's real
// attempt count, and a cell whose report it cannot take fails.
func (pool) Execute(ctx context.Context, l *Ledger, res *Result) {
	opt := l.opt
	pending := l.pending()
	workers := opt.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > len(pending) {
		workers = len(pending)
	}
	res.Workers = workers
	l.addPoolViews()
	exec := opt.exec
	if exec == nil {
		exec = runCell
	}

	feed := make(chan Cell)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			var busy time.Duration
			for cell := range feed {
				cellStart := time.Now()
				report, attempts, err := supervise(ctx, l, cell, exec)
				busy += time.Since(cellStart)
				if err == nil {
					if _, jerr := l.Complete(cell, attempts, report); jerr != nil {
						// A report we cannot persist is a failed cell:
						// counting it complete would let a resume silently
						// drop it from the fleet.
						err = fmt.Errorf("journal: %w", jerr)
					}
				}
				// A cell the campaign canceled mid-run is neither completed
				// nor failed; a journaled resume re-runs it.
				if err != nil && (ctx.Err() == nil || !errors.Is(err, ctx.Err())) {
					l.Fail(newCellError(cell, err, attempts))
				}
			}
			if wall := time.Since(l.start); wall > 0 {
				opt.Obs.Gauge(fmt.Sprintf("campaign_worker%02d_util", w)).
					Set(busy.Seconds() / wall.Seconds())
			}
		}(w)
	}

	// Feed pending cells in index order; stop feeding as soon as ctx
	// fires (the workers themselves stop their in-flight session at the
	// next poll).
feedLoop:
	for _, cell := range pending {
		select {
		case feed <- cell:
		case <-ctx.Done():
			break feedLoop
		}
	}
	close(feed)
	wg.Wait()
}
