// Worker: the child-process half of a sharded campaign. A worker is
// handed one Spec — the full matrix plus the cell indices to run —
// re-expands the matrix itself, verifies the expansion hash against the
// supervisor's, and runs exactly its assigned cells through the same
// in-process supervisor policy a single-process campaign uses. Every
// completed report streams back over stdout as one checksummed "cell"
// message that carries its cell index; liveness rides the same stream
// as periodic "hb" messages. The worker trusts nothing about its own
// lifetime — SIGTERM drains it gracefully mid-campaign, and anything
// harsher is the supervisor's problem to detect.
package shard

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/campaign"
	"repro/internal/obs"
	"repro/internal/profiling"
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
func (e *emitter) send(m campaign.Message) error {
	line, err := campaign.AppendLine(nil, &m)
	if err != nil {
		return err
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	_, err = e.w.Write(line)
	return err
}

// RunWorker runs one shard-worker assignment to completion or until
// ctx is canceled (graceful drain: in-flight cells finish their
// cancellation poll, completed cells are already streamed, the bye
// message closes the protocol). It is the one worker entry: "tcfleet
// shard-worker" calls it with the spec from its stdin and a
// SIGTERM/SIGINT context, the TCP agent with the spec from its ftSpec
// frame and a per-connection context. It returns the exit code: 0 on a
// completed (or gracefully drained) shard — per-cell failures are
// reported in-band as "fail" messages, not via the exit code — and 2
// on an assignment that fails Spec.check.
func RunWorker(ctx context.Context, spec Spec, stdout, stderr io.Writer) int {
	subset, got, err := spec.check()
	if err != nil {
		fmt.Fprintf(stderr, "shard-worker: %v\n", err)
		return 2
	}

	em := &emitter{w: stdout}
	var done atomic.Int64
	em.send(campaign.Message{Kind: "hello", Version: ProtocolVersion, Hash: got})

	// Heartbeat: proof of life between cells, so the supervisor can
	// tell "long cell" from "wedged process".
	hbDone := make(chan struct{})
	hbStopped := make(chan struct{})
	go func() {
		defer close(hbStopped)
		period := spec.HB
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
				em.send(campaign.Message{Kind: "hb", Done: done.Load()})
			}
		}
	}()

	// Span stitching: when the supervisor asked for it, trace this
	// worker's campaign spans (one per cell attempt, via the shared
	// per-cell supervisor) and stream them back as "span" messages at
	// drain — the supervisor rebases them onto its own timeline and
	// gives each shard its own pid row in the merged Chrome trace.
	var tracer *obs.Tracer
	if spec.Spans {
		tracer = obs.NewTracer()
	}
	workSpan := tracer.Start(fmt.Sprintf("shard %d: %d cells", spec.Shard, len(subset)), "shard")

	res, err := campaign.RunCells(ctx, subset, campaign.Options{
		Workers:     spec.Workers,
		Tracer:      tracer,
		CellTimeout: spec.CellTimeout,
		Retries:     spec.Retries,
		OnReport: func(cell campaign.Cell, r *profiling.RunReport) {
			// A write error means the supervisor end of the pipe is gone;
			// the remaining cells would be wasted work, but tearing down
			// from here races the pool, so just stop counting — the exit
			// path will fail on the bye line too and the supervisor's
			// journal never saw these cells, so nothing is lost.
			report, merr := json.Marshal(r)
			if merr == nil && em.send(campaign.Message{Kind: "cell", Index: cell.Index, Report: report}) == nil {
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
		em.send(campaign.Message{Kind: "fail", Index: ce.Cell.Index, Class: ce.Class, Attempts: ce.Attempts, Error: ce.Err.Error()})
	}
	workSpan.End()
	// Spans travel last, after the cells they describe.
	for _, sp := range tracer.Export() {
		em.send(campaign.Message{Kind: "span", Span: &sp})
	}
	em.send(campaign.Message{Kind: "bye", Done: done.Load(), Failed: len(res.Errors)})
	return 0
}

// check is the worker's whole validation of its assignment; it returns
// the cells to run and the hash of the local expansion. A spec fails
// when its supervision knobs are negative, its matrix does not read
// (campaign.Read rejects unknown fields) or expands to another hash
// than the supervisor's, or its cell indices are not strictly
// ascending inside the expansion.
func (s Spec) check() ([]campaign.Cell, string, error) {
	if s.CellTimeout < 0 {
		return nil, "", fmt.Errorf("negative cell timeout %v", s.CellTimeout)
	}
	if s.Retries < 0 {
		return nil, "", fmt.Errorf("negative retry budget %d", s.Retries)
	}
	m, err := campaign.Read(bytes.NewReader(s.Matrix))
	if err != nil {
		return nil, "", err
	}
	cells, err := m.Expand()
	if err != nil {
		return nil, "", err
	}
	hash := campaign.MatrixHash(cells)
	if s.Hash != "" && hash != s.Hash {
		// The supervisor and this worker expanded different campaigns —
		// running would poison the aggregate with mis-seeded cells.
		return nil, "", fmt.Errorf("matrix hash mismatch: supervisor %.12s, local expansion %.12s", s.Hash, hash)
	}
	subset := make([]campaign.Cell, 0, len(s.Cells))
	for i, idx := range s.Cells {
		if idx < 0 || idx >= len(cells) {
			return nil, "", fmt.Errorf("cell index %d outside expansion (%d cells)", idx, len(cells))
		}
		if i > 0 && idx <= s.Cells[i-1] {
			return nil, "", fmt.Errorf("cell index %d after %d: indices must be strictly ascending", idx, s.Cells[i-1])
		}
		subset = append(subset, cells[idx])
	}
	return subset, hash, nil
}
