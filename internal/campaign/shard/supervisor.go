// Supervisor: the campaign-tier fault boundary, one level above the
// per-cell supervisor. Workers are processes, and processes fail in
// ways goroutines cannot: SIGKILL, OOM, a wedged runtime, a pipe torn
// mid-line. The supervisor therefore trusts only two things — the
// campaign ledger, which journals before it aggregates, and stream
// lines that survive CRC-32 verification — and treats everything else
// as evidence to classify:
//
//   - silence for hangBeats heartbeat periods → hang: kill, respawn
//     (silence after the worker's "bye" is not a hang: the protocol is
//     over, and a worker wedged on its way out is killed uncounted)
//   - nonzero exit / spawn failure → crash: respawn
//   - clean exit with cells missing → torn shard: respawn
//   - a worker-reported "fail" message → terminal per-cell failure,
//     recorded with the worker's own class/attempts (the worker already
//     ran the per-cell retry policy; re-running the shard would not
//     change the verdict)
//
// Respawns re-assign only the cells not yet journaled done, with
// seed-derived jittered exponential backoff (the shard analogue of the
// per-cell policy), and a respawn budget; cells still missing when the
// budget runs out fail as ClassTransient. Cancel drains gracefully:
// SIGTERM, a bounded wait, then SIGKILL.
package shard

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/campaign"
	"repro/internal/profiling"
	"repro/internal/sim"
)

// shardBackoffLabel seeds the respawn-jitter RNG fork off the campaign
// seed (cf. the per-cell supervisor's 0xbacc0ff), one sub-fork per
// shard so concurrent respawns decorrelate.
const shardBackoffLabel = 0x5a4db0ff

// Options tunes the sharded supervisor. Campaign carries the options
// forwarded to each worker's in-process pool (Workers, CellTimeout,
// Retries) and the campaign-tier ones (journal, telemetry, OnReport),
// which the campaign driver applies here, in the supervising process —
// workers never journal.
type Options struct {
	Campaign campaign.Options
	// Shards is the number of worker processes; <=0 means 1.
	Shards int
	// Transport starts shard workers; required.
	Transport Transport
	// Retries is the respawn budget per shard (a shard spawns at most
	// Retries+1 times); <0 means DefaultShardRetries.
	Retries int
	// Logf receives supervision events (spawn, hang, crash, respawn) for
	// operator visibility; nil discards them.
	Logf func(format string, args ...any)

	// heartbeatEvery is the heartbeat period workers are told to honor
	// and the supervisor's liveness tick: a worker silent for hangBeats
	// periods is killed as hung. defaultHeartbeatEvery when zero; tests
	// shorten it.
	heartbeatEvery time.Duration
	// ticks starts one spawn's liveness tick source and returns it with
	// its stop function; nil means a time.Ticker at the heartbeat
	// period. Tests substitute hand-driven channels.
	ticks func(period time.Duration) (<-chan time.Time, func())
	// retryBackoff overrides the base respawn delay (defaultRetryBackoff
	// when zero); tests shorten it.
	retryBackoff time.Duration
}

func (o *Options) logf(format string, args ...any) {
	if o.Logf != nil {
		o.Logf(format, args...)
	}
}

// shardTracePid maps a shard ordinal to its pid row in the stitched
// Chrome trace; pid 1 is the supervisor itself.
func shardTracePid(si int) int { return si + 2 }

// Run expands the matrix, splits it across opt.Shards worker processes,
// and supervises them to completion. It is campaign.Run with worker
// processes in place of the in-process pool, and keeps its contract:
// the returned Profile is byte-identical to a single-process run of the
// same matrix, for any shard/worker count and across any schedule of
// worker crashes and recoveries, because every cell lands in the
// campaign ledger exactly once with its expansion-time seed.
func Run(ctx context.Context, m campaign.Matrix, opt Options) (*campaign.Result, error) {
	if opt.Transport == nil {
		return nil, fmt.Errorf("shard: no transport configured")
	}
	if opt.Shards <= 0 {
		opt.Shards = 1
	}
	if opt.heartbeatEvery <= 0 {
		opt.heartbeatEvery = defaultHeartbeatEvery
	}
	if opt.Retries < 0 {
		opt.Retries = DefaultShardRetries
	}
	if opt.retryBackoff <= 0 {
		opt.retryBackoff = defaultRetryBackoff
	}
	if opt.ticks == nil {
		opt.ticks = func(period time.Duration) (<-chan time.Time, func()) {
			t := time.NewTicker(period)
			return t.C, t.Stop
		}
	}
	matrixJSON, err := json.Marshal(m)
	if err != nil {
		return nil, err
	}
	return campaign.RunWith(ctx, m, opt.Campaign, &supervisor{opt: &opt, matrix: matrixJSON})
}

// supervisor is the sharded campaign.Executor: it runs the campaign's
// cells in worker processes and feeds every verified report and verdict
// into the campaign ledger. Its policy differs from the in-process
// pool's in three places: the journal records one attempt per cell
// (the worker's retries are not visible here), a report the journal
// cannot take leaves its cell remaining for the next respawn, and
// Workers <= 0 means one worker per shard.
type supervisor struct {
	opt    *Options
	matrix []byte // campaign matrix JSON, fed to every worker
	l      *campaign.Ledger
	cells  []campaign.Cell
}

// Execute splits every cell of the campaign across the shards — a
// resumed cell is skipped by its shard, not re-split — and runs one
// respawning runner per shard to completion.
func (s *supervisor) Execute(ctx context.Context, l *campaign.Ledger, res *campaign.Result) {
	s.l, s.cells = l, l.Cells()
	workers := s.opt.Campaign.Workers
	if workers <= 0 {
		workers = 1
	}
	res.Workers = workers
	tr := s.opt.Campaign.Tracer
	hash := campaign.MatrixHash(s.cells)

	assign := Split(len(s.cells), s.opt.Shards)
	l.AddShards(len(assign))
	// Trace stitching: the supervisor is pid 1; each shard ordinal gets
	// its own pid row (si+2), stable across respawns, so the merged
	// Chrome trace shows one timeline of supervisor + every worker.
	if tr != nil {
		tr.SetProcessName(1, "tcfleet supervisor")
		for si := range assign {
			tr.SetProcessName(shardTracePid(si), fmt.Sprintf("shard %d", si))
		}
	}
	var wg sync.WaitGroup
	for si := range assign {
		wg.Add(1)
		go func(si int, indices []int) {
			defer wg.Done()
			r := &shardRunner{
				sup: s, opt: s.opt, si: si,
				spec: Spec{
					Shard: si, Matrix: s.matrix,
					Workers: workers, Hash: hash, HB: s.opt.heartbeatEvery,
					Spans:       tr != nil,
					CellTimeout: s.opt.Campaign.CellTimeout, Retries: s.opt.Campaign.Retries,
				},
				indices: indices,
			}
			r.run(ctx)
		}(si, assign[si])
	}
	wg.Wait()
}

// shardRunner supervises one shard ordinal across its spawns. Every
// spawn, verdict and anomaly lands in the campaign ledger's row for the
// shard.
type shardRunner struct {
	sup     *supervisor
	opt     *Options
	si      int
	spec    Spec
	indices []int
}

// run is the respawn loop: compute the cells still missing, spawn a
// worker for exactly those, ingest until the stream ends, classify, and
// either finish, back off and respawn, or fail the remainder when the
// budget is spent.
func (r *shardRunner) run(ctx context.Context) {
	jitter := sim.NewRNG(r.sup.cells[0].Run.Seed ^ shardBackoffLabel).Fork(uint64(r.si) + 1)
	var lastErr error
	for attempt := 0; ; attempt++ {
		remaining := r.sup.l.Remaining(r.indices)
		if len(remaining) == 0 {
			return
		}
		if ctx.Err() != nil {
			return
		}
		if attempt > r.opt.Retries {
			r.opt.logf("shard %d: respawn budget exhausted (%d spawns); failing %d remaining cells",
				r.si, attempt, len(remaining))
			for _, idx := range remaining {
				r.sup.l.Fail(campaign.CellError{
					Cell:     r.sup.cells[idx],
					Err:      campaign.Transient(fmt.Errorf("shard %d unrecoverable after %d spawns: %v", r.si, attempt, lastErr)),
					Class:    campaign.ClassTransient,
					Attempts: attempt,
				})
			}
			return
		}
		if attempt > 0 {
			r.sup.l.ShardCount(r.si, campaign.ShardRestarts, 1)
			// The shard analogue of the per-cell retry schedule, on its
			// own per-shard jitter fork.
			d, ok := campaign.Backoff(ctx, r.opt.retryBackoff, attempt, jitter)
			if !ok {
				return
			}
			r.opt.logf("shard %d: respawn %d/%d after %v for %d cells (%v)",
				r.si, attempt, r.opt.Retries, d.Round(time.Millisecond), len(remaining), lastErr)
		}
		lastErr = r.runOnce(ctx, remaining)
		if ctx.Err() != nil {
			return
		}
		if lastErr == nil {
			// Exit 0 but cells missing: the worker (or the pipe) silently
			// dropped records. Named so the exhaustion message explains it.
			lastErr = fmt.Errorf("worker exited cleanly with cells missing (torn or dropped records)")
		}
	}
}

// runOnce spawns one worker for the remaining cells and ingests its
// stream to the end. It returns nil when the worker exited cleanly; the
// caller decides completion purely from the done/failed ledger, so a
// clean exit that silently dropped cells is still respawned.
func (r *shardRunner) runOnce(ctx context.Context, remaining []int) error {
	l := r.sup.l
	spec := r.spec
	spec.Cells = remaining
	conn, err := r.opt.Transport.Start(spec)
	if err != nil {
		l.ShardCount(r.si, campaign.ShardCrashes, 1)
		return fmt.Errorf("spawn: %w", err)
	}
	r.opt.logf("shard %d: worker pid %d started for %d cells", r.si, conn.Pid(), len(remaining))
	l.ShardSpawned(r.si, conn.Pid(), remaining)

	lv := &liveness{}
	connDone := make(chan struct{})
	monDone := make(chan struct{})
	go r.monitor(ctx, conn, lv, connDone, monDone)

	// Ingest: the worker's stdout, one verified message per line. A torn
	// line is counted and skipped; the shard just loses that cell until
	// the next spawn.
	assigned := map[int]bool{}
	for _, idx := range remaining {
		assigned[idx] = true
	}
	poisoned := false
	lines := campaign.NewLineReader(conn.Output(), campaign.MaxLine)
	for {
		m, err := lines.Next()
		if err != nil {
			break // EOF or a dead pipe; Wait classifies which
		}
		lv.silent.Store(0)
		r.handle(&m, assigned, &poisoned, lv)
	}
	if n := lines.Torn(); n > 0 {
		l.ShardCount(r.si, campaign.ShardTorn, n)
		l.ShardNote(r.si, "torn_records", fmt.Sprintf("%d torn/corrupt lines dropped", n))
		r.opt.logf("shard %d: %d torn/corrupt lines dropped", r.si, n)
	}
	waitErr := conn.Wait()
	close(connDone)
	<-monDone

	switch {
	case ctx.Err() != nil:
		l.ShardDown(r.si, "drained")
		return ctx.Err()
	case lv.hung.Load():
		l.ShardDown(r.si, "hang")
		return fmt.Errorf("hang: no output for %d heartbeats (%v), killed", hangBeats, hangBeats*r.spec.HB)
	case lv.reaped.Load():
		// Killed after its bye: every record was already delivered.
		l.ShardDown(r.si, "killed after bye")
		return nil
	case waitErr != nil:
		l.ShardCount(r.si, campaign.ShardCrashes, 1)
		l.ShardDown(r.si, "crash")
		return fmt.Errorf("crash: %w", waitErr)
	default:
		l.ShardDown(r.si, "clean exit")
		return nil
	}
}

// liveness is one spawn's hang state, shared by the ingest loop and
// the monitor.
type liveness struct {
	silent atomic.Int64 // heartbeat periods since the worker's last verified line
	bye    atomic.Bool  // the worker has closed the protocol
	hung   atomic.Bool  // killed by the monitor as hung
	reaped atomic.Bool  // killed by the monitor after its bye
}

// monitor watches one spawned worker from the side: it counts silent
// heartbeat periods while the stream is live, kills the worker at
// hangBeats of them, and drains gracefully (SIGTERM, bounded wait,
// SIGKILL) when the campaign is canceled.
func (r *shardRunner) monitor(ctx context.Context, conn Conn, lv *liveness, connDone, monDone chan struct{}) {
	defer close(monDone)
	ticks, stop := r.opt.ticks(r.spec.HB)
	defer stop()
	for {
		select {
		case <-connDone:
			return
		case <-ctx.Done():
			r.opt.logf("shard %d: draining (SIGTERM, %v grace)", r.si, drainTimeout)
			conn.Terminate()
			select {
			case <-connDone:
			case <-time.After(drainTimeout):
				r.opt.logf("shard %d: drain deadline passed, SIGKILL", r.si)
				conn.Kill()
				<-connDone
			}
			return
		case <-ticks:
			n := lv.silent.Add(1)
			age := time.Duration(n) * r.spec.HB
			r.sup.l.ShardSilent(r.si, age)
			if n < hangBeats {
				continue
			}
			if lv.bye.Load() {
				lv.reaped.Store(true)
				r.opt.logf("shard %d: worker still running %v after its bye — killing it", r.si, age)
			} else {
				lv.hung.Store(true)
				r.sup.l.ShardCount(r.si, campaign.ShardHangs, 1)
				r.opt.logf("shard %d: silent for %d heartbeats (%v) — killing wedged worker", r.si, n, age)
			}
			conn.Kill()
			return
		}
	}
}

// handle acts on one verified message. A worker whose hello names
// another protocol version or matrix is poisoned: it expanded a
// different campaign (RunWorker refuses a hash mismatch on its side
// too — this is defense in depth against a stale binary), so its cells,
// verdicts and spans are all dropped.
func (r *shardRunner) handle(m *campaign.Message, assigned map[int]bool, poisoned *bool, lv *liveness) {
	switch m.Kind {
	case "hello":
		if m.Version != ProtocolVersion || m.Hash != r.spec.Hash {
			r.opt.logf("shard %d: worker speaks v%d for matrix %.12s, campaign is v%d %.12s; ignoring its stream",
				r.si, m.Version, m.Hash, ProtocolVersion, r.spec.Hash)
			*poisoned = true
		}
	case "cell":
		r.ingest(m, assigned, *poisoned)
	case "fail":
		if *poisoned || !assigned[m.Index] {
			r.sup.l.ShardCount(r.si, campaign.ShardOrphans, 1)
			return
		}
		r.sup.l.Fail(campaign.CellError{
			Cell:     r.sup.cells[m.Index],
			Err:      fmt.Errorf("shard %d worker: %s", r.si, m.Error),
			Class:    m.Class,
			Attempts: m.Attempts,
		})
	case "span":
		if !*poisoned && m.Span != nil {
			r.opt.Campaign.Tracer.IngestSpan(shardTracePid(r.si), *m.Span)
		}
	case "bye":
		lv.bye.Store(true)
	}
}

// ingest folds one cell's report into the campaign ledger.
// Misattribution cannot slip through: the cell must be assigned to this
// spawn and its expansion-time seed must match the report's.
func (r *shardRunner) ingest(m *campaign.Message, assigned map[int]bool, poisoned bool) {
	l := r.sup.l
	idx := m.Index
	rep, err := profiling.ReadRunReport(bytes.NewReader(m.Report))
	if err != nil {
		l.ShardCount(r.si, campaign.ShardTorn, 1)
		return
	}
	if poisoned || !assigned[idx] || rep.Seed != r.sup.cells[idx].Run.Seed {
		l.ShardCount(r.si, campaign.ShardOrphans, 1)
		r.opt.logf("shard %d: dropping report for cell %d (poisoned stream, unassigned or seed mismatch)", r.si, idx)
		return
	}
	dup, err := l.Complete(r.sup.cells[idx], 1, rep)
	if dup {
		l.ShardCount(r.si, campaign.ShardDup, 1)
		l.ShardNote(r.si, "dup_record", fmt.Sprintf("cell %d replayed across a respawn boundary", idx))
		return
	}
	if err != nil {
		// A report the journal cannot take is not done: the cell stays
		// remaining, and the next spawn re-runs it.
		l.Warnf("cell %s: report not journaled: %v", r.sup.cells[idx].ID, err)
	}
}
