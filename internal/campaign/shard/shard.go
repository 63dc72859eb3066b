// Package shard scales a campaign past one process: the canonical
// expanded matrix is split into deterministic index ranges, each range
// runs in a child worker process (tcfleet shard-worker), and completed
// cells stream back over the worker's stdout one checksummed message
// per line (see stream.go) — verified on ingest, because a pipe from a
// process that can crash mid-write may tear at any byte.
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
	"fmt"
	"io"
	"os"
	"os/exec"
	"sort"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

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

// FormatIndexSet renders sorted cell indices compactly as ranges:
// [0 1 2 3 7 9 10] → "0-3,7,9-10". The inverse of ParseIndexSet.
func FormatIndexSet(indices []int) string {
	if len(indices) == 0 {
		return ""
	}
	sorted := append([]int(nil), indices...)
	sort.Ints(sorted)
	var b strings.Builder
	for i := 0; i < len(sorted); {
		j := i
		for j+1 < len(sorted) && sorted[j+1] == sorted[j]+1 {
			j++
		}
		if b.Len() > 0 {
			b.WriteByte(',')
		}
		if j == i {
			fmt.Fprintf(&b, "%d", sorted[i])
		} else {
			fmt.Fprintf(&b, "%d-%d", sorted[i], sorted[j])
		}
		i = j + 1
	}
	return b.String()
}

// maxIndexSetSize bounds how many indices one ParseIndexSet call may
// materialize. Index sets name shard assignments, so the bound only
// needs to exceed any plausible campaign; without it, a corrupted (or
// hostile, now that specs arrive over TCP) range like "0-2000000000"
// would allocate gigabytes before the cell-bound check ever runs.
const maxIndexSetSize = 1 << 22

// ParseIndexSet parses the FormatIndexSet syntax back into a sorted
// index slice. The grammar is strict — exactly what FormatIndexSet
// emits: tokens in strictly ascending order, ranges ascending, no
// overlaps or duplicates. A set that fails these rules was not
// produced by FormatIndexSet, and since index sets name respawn
// assignments, silently "repairing" one (the old tolerant behavior)
// would mask a corrupted spec rather than surface it.
func ParseIndexSet(s string) ([]int, error) {
	s = strings.TrimSpace(s)
	if s == "" {
		return nil, nil
	}
	var out []int
	prev := -1 // highest index accepted so far
	for _, tok := range strings.Split(s, ",") {
		tok = strings.TrimSpace(tok)
		lo, hi, isRange := strings.Cut(tok, "-")
		a, err := strconv.Atoi(lo)
		if err != nil || a < 0 {
			return nil, fmt.Errorf("shard: bad index set token %q", tok)
		}
		b := a
		if isRange {
			b, err = strconv.Atoi(hi)
			if err != nil || b < 0 {
				return nil, fmt.Errorf("shard: bad index range %q", tok)
			}
			if b < a {
				return nil, fmt.Errorf("shard: descending index range %q (%d < %d)", tok, b, a)
			}
		}
		if a <= prev {
			return nil, fmt.Errorf("shard: index set token %q overlaps or descends (already covered through %d)", tok, prev)
		}
		if b >= maxIndexSetSize {
			// Bounding the index bounds the materialized size too, with no
			// overflow risk for ranges like "0-9223372036854775807".
			return nil, fmt.Errorf("shard: index %d in token %q exceeds the %d bound", b, tok, maxIndexSetSize)
		}
		for i := a; i <= b; i++ {
			out = append(out, i)
		}
		prev = b
	}
	return out, nil
}

// Spec is everything a transport needs to start one shard worker. The
// matrix travels as JSON over the worker's stdin; everything else is
// small enough for argv.
type Spec struct {
	Shard  int    // shard ordinal, for logging and protocol lines
	Shards int    // total shard count
	Matrix []byte // campaign matrix JSON, fed to the worker's stdin
	// Cells is the FormatIndexSet of the cell indices this spawn must
	// execute — on a respawn, only the cells not yet journaled done.
	Cells   string
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

// Args renders the spec's argv flags for the shard-worker subcommand
// (the matrix is not included — it goes over stdin).
func (s Spec) Args() []string {
	args := []string{
		"-shard", strconv.Itoa(s.Shard),
		"-cells", s.Cells,
		"-workers", strconv.Itoa(s.Workers),
		"-hb", s.HB.String(),
	}
	if s.Hash != "" {
		args = append(args, "-hash", s.Hash)
	}
	if s.Spans {
		args = append(args, "-spans")
	}
	if s.CellTimeout > 0 {
		args = append(args, "-celltimeout", s.CellTimeout.String())
	}
	if s.Retries > 0 {
		args = append(args, "-retries", strconv.Itoa(s.Retries))
	}
	return args
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
// Argv[0] is the binary, Argv[1:] fixed leading arguments (normally
// {"tcfleet", "shard-worker"}), and the spec's flags are appended. The
// matrix JSON is piped to the child's stdin; stderr is forwarded to
// Stderr (campaign diagnostics stay human-readable and out of the
// message stream).
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
	args := append(append([]string(nil), t.Argv[1:]...), spec.Args()...)
	cmd := exec.Command(t.Argv[0], args...)
	cmd.Stdin = bytes.NewReader(spec.Matrix)
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
