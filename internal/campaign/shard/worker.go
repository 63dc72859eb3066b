// Worker: the child-process half of a sharded campaign. A worker is
// handed the full matrix (stdin) plus an index set (argv), re-expands
// the matrix itself, verifies the expansion hash against the
// supervisor's, and runs exactly its assigned cells through the same
// in-process supervisor policy a single-process campaign uses. Every
// completed report streams back over stdout as one checksummed "cell"
// message that carries its cell index; liveness rides the same stream
// as periodic "hb" messages. The worker trusts nothing about its own
// lifetime — SIGTERM drains it gracefully mid-campaign, and anything
// harsher is the supervisor's problem to detect.
package shard

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"repro/internal/campaign"
	"repro/internal/obs"
	"repro/internal/profiling"
	"repro/internal/runcfg"
)

// emitter serializes the worker's stdout: messages come from concurrent
// pool workers and the heartbeat goroutine, and one Write per line under
// one lock keeps lines whole.
type emitter struct {
	mu sync.Mutex
	w  io.Writer
}

// send writes m as one stream line. Only a cell's caller checks the
// error: a failed write means the supervisor end is gone, and it judges
// the worker by what did arrive.
func (e *emitter) send(m message) error {
	line, err := appendLine(nil, &m)
	if err != nil {
		return err
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	_, err = e.w.Write(line)
	return err
}

// WorkerMain is the entry point of the hidden "tcfleet shard-worker"
// subcommand, factored over explicit streams so tests can run it
// in-process or via a helper binary. It returns the process exit code:
// 0 on a completed (or gracefully drained) shard — per-cell failures
// are reported in-band as "fail" messages, not via the exit code — and 2
// on unusable input (bad flags, unreadable matrix, hash mismatch).
// Graceful drain is SIGTERM/SIGINT; RunWorker is the same entry point
// over an explicit context for hosts (the TCP agent) that drain a
// worker without owning its process signals.
func WorkerMain(args []string, stdin io.Reader, stdout, stderr io.Writer) int {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	return RunWorker(ctx, args, stdin, stdout, stderr)
}

// RunWorker runs one shard-worker assignment to completion or until
// ctx is canceled (graceful drain: in-flight cells finish their
// cancellation poll, completed cells are already streamed, the bye
// message closes the protocol). It is WorkerMain minus signal ownership —
// the TCP agent runs many assignments in one process and cancels each
// connection's worker independently.
func RunWorker(ctx context.Context, args []string, stdin io.Reader, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("shard-worker", flag.ContinueOnError)
	fs.SetOutput(stderr)
	shardNo := fs.Int("shard", 0, "shard ordinal (for logs and trace spans)")
	cellSpec := fs.String("cells", "", "cell index set to execute (e.g. 0-3,7,9-12)")
	workers := fs.Int("workers", 1, "worker pool size inside this shard")
	hb := fs.Duration("hb", defaultHeartbeatEvery, "heartbeat period on stdout")
	hash := fs.String("hash", "", "expected MatrixHash of the expansion (verified)")
	spans := fs.Bool("spans", false, "trace campaign spans and stream them back at drain")
	sup := runcfg.BindSupervise(fs)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if err := sup.Validate(); err != nil {
		fmt.Fprintf(stderr, "shard-worker: %v\n", err)
		return 2
	}

	m, err := campaign.Read(stdin)
	if err != nil {
		fmt.Fprintf(stderr, "shard-worker: matrix on stdin: %v\n", err)
		return 2
	}
	cells, err := m.Expand()
	if err != nil {
		fmt.Fprintf(stderr, "shard-worker: %v\n", err)
		return 2
	}
	got := campaign.MatrixHash(cells)
	if *hash != "" && got != *hash {
		// The supervisor and this worker expanded different campaigns —
		// running would poison the aggregate with mis-seeded cells.
		fmt.Fprintf(stderr, "shard-worker: matrix hash mismatch: supervisor %.12s, local expansion %.12s\n", *hash, got)
		return 2
	}
	indices, err := ParseIndexSet(*cellSpec)
	if err != nil {
		fmt.Fprintf(stderr, "shard-worker: %v\n", err)
		return 2
	}
	subset := make([]campaign.Cell, 0, len(indices))
	for _, idx := range indices {
		if idx < 0 || idx >= len(cells) {
			fmt.Fprintf(stderr, "shard-worker: cell index %d outside expansion (%d cells)\n", idx, len(cells))
			return 2
		}
		subset = append(subset, cells[idx])
	}

	em := &emitter{w: stdout}
	var done atomic.Int64
	em.send(message{Kind: "hello", Version: ProtocolVersion, Hash: got})

	// Heartbeat: proof of life between cells, so the supervisor can
	// tell "long cell" from "wedged process".
	hbDone := make(chan struct{})
	hbStopped := make(chan struct{})
	go func() {
		defer close(hbStopped)
		period := *hb
		if period <= 0 {
			period = defaultHeartbeatEvery
		}
		t := time.NewTicker(period)
		defer t.Stop()
		for {
			select {
			case <-hbDone:
				return
			case <-t.C:
				em.send(message{Kind: "hb", Done: done.Load()})
			}
		}
	}()

	// Span stitching: when the supervisor asked for it, trace this
	// worker's campaign spans (one per cell attempt, via the shared
	// per-cell supervisor) and stream them back as "span" messages at
	// drain — the supervisor rebases them onto its own timeline and
	// gives each shard its own pid row in the merged Chrome trace.
	var tracer *obs.Tracer
	if *spans {
		tracer = obs.NewTracer()
	}
	workSpan := tracer.Start(fmt.Sprintf("shard %d: cells %s", *shardNo, *cellSpec), "shard")

	res, err := campaign.RunCells(ctx, subset, campaign.Options{
		Workers:     *workers,
		Tracer:      tracer,
		CellTimeout: sup.CellTimeout,
		Retries:     sup.Retries,
		OnReport: func(cell campaign.Cell, r *profiling.RunReport) {
			// A write error means the supervisor end of the pipe is gone;
			// the remaining cells would be wasted work, but tearing down
			// from here races the pool, so just stop counting — the exit
			// path will fail on the bye line too and the supervisor's
			// journal never saw these cells, so nothing is lost.
			report, merr := json.Marshal(r)
			if merr == nil && em.send(message{Kind: "cell", Index: cell.Index, Report: report}) == nil {
				done.Add(1)
			}
		},
	})
	close(hbDone)
	<-hbStopped
	if err != nil {
		fmt.Fprintf(stderr, "shard-worker: %v\n", err)
		return 2
	}
	for _, ce := range res.Errors {
		em.send(message{Kind: "fail", Index: ce.Cell.Index, Class: ce.Class, Attempts: ce.Attempts, Error: ce.Err.Error()})
	}
	workSpan.End()
	// Spans travel last, after the cells they describe.
	for _, sp := range tracer.Export() {
		em.send(message{Kind: "span", Span: &sp})
	}
	em.send(message{Kind: "bye", Done: done.Load(), Failed: len(res.Errors)})
	return 0
}
