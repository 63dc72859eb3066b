// Package shard scales a campaign past one process: the canonical
// expanded matrix is split into deterministic index ranges, each range
// runs in a child worker process (tcfleet shard-worker), and completed
// cells stream back over the worker's stdout one checksummed message
// per line (campaign's line codec, which the journal writes too) —
// verified on ingest, because a pipe from a process that can crash
// mid-write may tear at any byte.
//
// The split is part of the campaign's determinism contract: Split is a
// pure function of (cell count, shard count), cell seeds were already
// fixed at expansion, and the fleet accumulator canonicalizes at
// Finalize — so the global aggregate is byte-identical for any shard
// count, any per-shard worker count, and any interleaving of worker
// crashes and respawns, as long as every cell eventually lands exactly
// once.
package shard

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"sync"
	"syscall"
	"time"
)

// ProtocolVersion versions the worker protocol: the Spec a worker is
// started from and the stream it writes back. The worker's hello names
// it, and the TCP handshake refuses an agent that speaks another.
const ProtocolVersion = 3

// Supervision timing. The heartbeat period is the one timing input;
// the hang budget is counted in periods of it, and the rest are fixed.
const (
	// defaultHeartbeatEvery is how often a worker emits an "hb" message,
	// and how often the supervisor counts a silent period.
	defaultHeartbeatEvery = 500 * time.Millisecond
	// hangBeats is the hang budget: a worker that sends nothing for this
	// many heartbeat periods in a row is presumed wedged and killed
	// (10 s at the default period).
	hangBeats = 20
	// DefaultShardRetries is how many times a crashed/hung/torn shard is
	// re-spawned before its remaining cells are failed.
	DefaultShardRetries = 2
	// defaultRetryBackoff is the base delay before a shard respawn,
	// doubled per attempt and jittered from the campaign seed.
	defaultRetryBackoff = 250 * time.Millisecond
	// drainTimeout bounds graceful drain on cancel: SIGTERM, wait this
	// long, then SIGKILL.
	drainTimeout = 5 * time.Second
)

// Split partitions total cell indices into contiguous, balanced,
// deterministic ranges — shard s gets indices in ascending order, the
// first total%shards shards one extra cell. It is a pure function of
// its arguments, so every run of the same matrix at the same shard
// count produces the same assignment.
func Split(total, shards int) [][]int {
	if shards < 1 {
		shards = 1
	}
	if shards > total {
		// Never materialize empty shards: a worker with no cells is pure
		// supervision overhead.
		shards = total
		if shards == 0 {
			shards = 1
		}
	}
	out := make([][]int, shards)
	base := total / shards
	extra := total % shards
	next := 0
	for s := range out {
		n := base
		if s < extra {
			n++
		}
		if n > 0 {
			out[s] = make([]int, 0, n)
		}
		for i := 0; i < n; i++ {
			out[s] = append(out[s], next)
			next++
		}
	}
	return out
}

// Spec is one shard worker's assignment, and the only document a
// worker is started from: the exec transport writes it as JSON to the
// child's stdin, the TCP transport sends the same JSON in the ftSpec
// frame, and both ends hand it to RunWorker, which checks it before
// running anything.
type Spec struct {
	Shard  int             // shard ordinal, for logging and trace spans
	Matrix json.RawMessage // campaign matrix JSON, read with campaign.Read
	// Cells are the expansion indices this spawn must execute, strictly
	// ascending — on a respawn, only the cells not yet journaled done.
	Cells   []int
	Workers int           // in-process worker pool size inside the shard
	Hash    string        // MatrixHash of the full expansion; worker re-verifies
	HB      time.Duration // heartbeat period the worker must honor
	// Spans asks the worker to trace its campaign spans and stream them
	// back as "span" messages at drain, for cross-process trace
	// stitching.
	Spans bool

	// Per-cell supervision, forwarded into the worker's campaign.RunCells.
	CellTimeout time.Duration
	Retries     int
}

// ReadSpec decodes one Spec, rejecting unknown fields. The input size
// is bounded by its carrier — MaxFramePayload over TCP, the
// supervisor's own write into a local pipe — and every cell index must
// fall inside the expansion (Spec.check), so no separate bound on the
// index count is needed.
func ReadSpec(r io.Reader) (Spec, error) {
	var s Spec
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&s); err != nil {
		return Spec{}, fmt.Errorf("shard spec: %w", err)
	}
	return s, nil
}

// Conn is one live shard worker as the supervisor sees it: a byte
// stream to ingest and a process to signal. Implementations must make
// Output return EOF (or an error) once the worker is gone, and Wait
// must be callable exactly once. Liveness contract (TestConnLiveness):
// even when the caller has stopped reading Output mid-stream, Wait
// returns promptly after Kill, and after the worker crashes on its own.
type Conn interface {
	// Output is the worker's message stream (its stdout).
	Output() io.Reader
	// Terminate asks the worker to drain gracefully (SIGTERM).
	Terminate()
	// Kill stops the worker immediately (SIGKILL).
	Kill()
	// Wait reaps the worker and returns its exit error, nil on clean
	// exit. Call after draining Output, or after Kill.
	Wait() error
	// Pid identifies the worker process for logs (0 when not applicable).
	Pid() int
}

// Transport starts shard workers. The local implementation execs a
// child process; the interface is deliberately narrow so a TCP
// transport (remote workers) can slot in without touching the
// supervisor.
type Transport interface {
	Start(spec Spec) (Conn, error)
}

// ExecTransport launches shard workers as local child processes:
// Argv[0] is the binary, Argv[1:] its arguments (normally
// {"tcfleet", "shard-worker"}). The spec's JSON is piped to the child's
// stdin; stderr is forwarded to Stderr (campaign diagnostics stay
// human-readable and out of the message stream).
type ExecTransport struct {
	Argv   []string
	Env    []string // extra environment entries, appended to os.Environ()
	Stderr io.Writer
}

// Start launches one worker process for the spec.
func (t *ExecTransport) Start(spec Spec) (Conn, error) {
	if len(t.Argv) == 0 {
		return nil, fmt.Errorf("shard: ExecTransport has no argv")
	}
	specJSON, err := json.Marshal(spec)
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(t.Argv[0], t.Argv[1:]...)
	cmd.Stdin = bytes.NewReader(specJSON)
	cmd.Stderr = t.Stderr
	if len(t.Env) > 0 {
		cmd.Env = append(os.Environ(), t.Env...)
	}
	out, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, err
	}
	return &execConn{cmd: cmd, out: out}, nil
}

// execConn wraps one exec'd worker. Signals after process exit are
// ignored — the monitor may race Wait and that must stay harmless.
type execConn struct {
	cmd  *exec.Cmd
	out  io.ReadCloser
	once sync.Once
	werr error
}

func (c *execConn) Output() io.Reader { return c.out }

func (c *execConn) Terminate() {
	if p := c.cmd.Process; p != nil {
		_ = p.Signal(syscall.SIGTERM)
	}
}

func (c *execConn) Kill() {
	if p := c.cmd.Process; p != nil {
		_ = p.Kill()
	}
}

func (c *execConn) Wait() error {
	c.once.Do(func() { c.werr = c.cmd.Wait() })
	return c.werr
}

func (c *execConn) Pid() int {
	if p := c.cmd.Process; p != nil {
		return p.Pid
	}
	return 0
}
