// Agent: the listening half of remote shard workers — a long-lived
// daemon (`tcfleet agent`) that accepts authenticated supervisor
// connections and runs one shard-worker assignment per connection,
// in-process, with the worker's stdout framed back over the socket.
// One connection == one spawn: a respawn after any failure is a fresh
// dial with a fresh assignment, so the agent holds no campaign state
// at all — the supervisor's journal stays the only ledger, and an
// agent restart loses nothing but in-flight work the supervisor
// already knows how to re-run.
//
// Trust boundary: an unauthenticated peer gets a random challenge and
// a closed connection — no banner, no version, no spec. The worker is
// only started after the mutual handshake, and a connection loss at
// any point cancels the worker's context (the supervisor has either
// moved on or will redial; finishing the work would only produce
// records nobody ingests).
package shard

import (
	"bytes"
	"context"
	"encoding/binary"
	"fmt"
	"io"
	"net"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/obs"
)

// Agent serves shard-worker assignments to authenticated supervisors.
type Agent struct {
	// Key is the shared authentication key (LoadKey). Required; never
	// logged.
	Key []byte
	// Workers caps the in-process pool size of one assignment when the
	// supervisor asks for more; 0 means trust the spec.
	Workers int
	// Logf receives connection lifecycle diagnostics; nil discards.
	// Messages never contain key material.
	Logf func(format string, args ...any)
	// Obs receives agent-side counters (connections, auth failures,
	// active workers); nil disables them.
	Obs *obs.Registry
	// Stderr receives worker diagnostics (the local analogue of the
	// exec transport forwarding worker stderr); nil discards.
	Stderr io.Writer

	active atomic.Int64 // live assignments, mirrored to the obs gauge
}

func (a *Agent) logf(format string, args ...any) {
	if a.Logf != nil {
		a.Logf(format, args...)
	}
}

func (a *Agent) stderr() io.Writer {
	if a.Stderr != nil {
		return a.Stderr
	}
	return io.Discard
}

// Serve accepts connections on ln until ctx is canceled (or ln is
// closed externally), then waits for every in-flight assignment to
// drain. Cancellation is the agent's graceful shutdown: the listener
// closes immediately, live workers get their contexts canceled and
// drain like a SIGTERM'd exec worker.
func (a *Agent) Serve(ctx context.Context, ln net.Listener) error {
	if len(a.Key) < MinKeyLen {
		return fmt.Errorf("shard: agent key shorter than %d bytes", MinKeyLen)
	}
	stop := make(chan struct{})
	defer close(stop)
	go func() {
		select {
		case <-ctx.Done():
			ln.Close()
		case <-stop:
		}
	}()
	var wg sync.WaitGroup
	for {
		nc, err := ln.Accept()
		if err != nil {
			wg.Wait()
			if ctx.Err() != nil {
				return nil
			}
			return err
		}
		a.Obs.Counter("agent_conns_total").Inc()
		wg.Add(1)
		go func() {
			defer wg.Done()
			a.handle(ctx, nc)
		}()
	}
}

// ListenAndServe binds addr and serves; the bound address (the only
// way to learn the port of ":0") is reported through onListen before
// accepting begins.
func (a *Agent) ListenAndServe(ctx context.Context, addr string, onListen func(net.Addr)) error {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return fmt.Errorf("shard: agent listen: %w", err)
	}
	if onListen != nil {
		onListen(ln.Addr())
	}
	return a.Serve(ctx, ln)
}

// handle runs one connection: authenticate, receive the assignment,
// run the worker with its stdout framed back, report the exit code.
func (a *Agent) handle(ctx context.Context, nc net.Conn) {
	defer nc.Close()
	remote := nc.RemoteAddr().String()
	_ = nc.SetDeadline(time.Now().Add(DefaultHandshakeTimeout))
	if err := handshakeAgent(nc, a.Key); err != nil {
		// Deliberately terse: an unauthenticated peer learns nothing, and
		// the log carries no key-derived bytes.
		a.Obs.Counter("agent_handshake_failures").Inc()
		a.logf("agent: %s: %v", remote, err)
		return
	}
	ft, payload, err := readFrame(nc)
	if err != nil || ft != ftSpec {
		a.Obs.Counter("agent_bad_specs").Inc()
		a.logf("agent: %s: no spec after handshake (frame %d, %v)", remote, ft, err)
		return
	}
	spec, err := ReadSpec(bytes.NewReader(payload))
	if err != nil {
		a.Obs.Counter("agent_bad_specs").Inc()
		a.logf("agent: %s: bad spec: %v", remote, err)
		return
	}
	if a.Workers > 0 && spec.Workers > a.Workers {
		spec.Workers = a.Workers
	}
	var pid [4]byte
	binary.BigEndian.PutUint32(pid[:], uint32(os.Getpid()))
	if err := writeFrame(nc, ftSpecOK, pid[:]); err != nil {
		a.logf("agent: %s: spec ack: %v", remote, err)
		return
	}
	_ = nc.SetDeadline(time.Time{})
	a.logf("agent: %s: shard %d assigned %d cells (%d workers)", remote, spec.Shard, len(spec.Cells), spec.Workers)

	wctx, cancel := context.WithCancel(ctx)
	defer cancel()
	// Control reader: a ftTerm frame is the supervisor's graceful drain;
	// EOF or a reset means the supervisor is gone — either way the
	// worker's context ends and the campaign pool drains.
	go func() {
		for {
			ft, _, err := readFrame(nc)
			if err != nil {
				cancel()
				return
			}
			if ft == ftTerm {
				a.logf("agent: %s: shard %d drain requested", remote, spec.Shard)
				cancel()
				return
			}
		}
	}()

	out := &frameWriter{c: nc}
	a.Obs.Gauge("agent_workers_active").Set(float64(a.active.Add(1)))
	code := RunWorker(wctx, spec, out, a.stderr())
	a.Obs.Gauge("agent_workers_active").Set(float64(a.active.Add(-1)))
	a.Obs.Counter("agent_assignments_total").Inc()
	var exit [4]byte
	binary.BigEndian.PutUint32(exit[:], uint32(int32(code)))
	_ = out.control(ftExit, exit[:])
	a.logf("agent: %s: shard %d worker exit %d", remote, spec.Shard, code)
}

// frameWriter adapts the socket to the worker's stdout: every Write
// becomes one ftStream frame under a write deadline, and the error is
// sticky — once the supervisor is unreachable the worker's emitter
// sees every subsequent write fail, exactly like a broken pipe.
type frameWriter struct {
	mu  sync.Mutex
	c   net.Conn
	err error
}

func (w *frameWriter) Write(p []byte) (int, error) {
	if err := w.control(ftStream, p); err != nil {
		return 0, err
	}
	return len(p), nil
}

// control sends one frame of any type under the writer's lock, so exit
// frames never interleave with stream chunks.
func (w *frameWriter) control(ft frameType, payload []byte) error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.err != nil {
		return w.err
	}
	_ = w.c.SetWriteDeadline(time.Now().Add(WriteTimeout))
	if err := writeFrame(w.c, ft, payload); err != nil {
		w.err = err
		return err
	}
	return nil
}
