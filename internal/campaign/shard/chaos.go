// Chaos: a seeded fault-injection wrapper over any Transport, for
// proving the supervisor's determinism contract holds on a hostile
// network. The wrapper sits where a flaky WAN would — between the
// supervisor's ingest and the real connection — and injects the
// canonical network pathologies:
//
//   - latency spikes: reads pause briefly (exercises nothing but
//     patience — aggregates must not care);
//   - mid-line cuts: the connection is reset after a seed-chosen
//     byte count (the line reader drops the torn tail, the
//     supervisor classifies a crash and respawns);
//   - stalls: one read blocks past the hang budget (the monitor must
//     kill the wedged connection, not wait forever);
//   - duplicate partial replays: recently delivered bytes are
//     delivered again (dup/torn counters tick, the ledger stays
//     exactly-once).
//
// Every decision comes from an RNG forked off (Seed, spawn ordinal),
// so a chaos run is reproducible; MaxFaults bounds the total injected
// faults so a bounded respawn budget always converges.
package shard

import (
	"fmt"
	"io"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/sim"
)

// chaosLabel decorrelates the chaos RNG from every other seed fork in
// the tree (cf. shardBackoffLabel).
const chaosLabel = 0xc4a05c4a05

// ChaosPlan tunes the injected fault mix. Probabilities are evaluated
// once per spawned connection (cut, stall) or once per read window
// (latency, replay); zero values inject nothing of that kind.
type ChaosPlan struct {
	// CutProb is the per-spawn probability of a connection reset after
	// a seed-chosen number of stream bytes.
	CutProb float64
	// StallProb is the per-spawn probability of one read stalling for
	// StallFor — long enough, in tests, to exhaust the hang budget.
	StallProb float64
	StallFor  time.Duration
	// LatencyProb is the per-read probability of a Latency-long pause.
	LatencyProb float64
	Latency     time.Duration
	// ReplayProb is the per-read probability of re-delivering a suffix
	// of recently delivered bytes (a duplicated partial flush).
	ReplayProb float64
	// MaxFaults caps the total cuts+stalls+replays injected across the
	// whole transport; 0 means unlimited. A finite cap guarantees a
	// campaign with a finite respawn budget converges.
	MaxFaults int
}

// ChaosTransport wraps Inner, injecting ChaosPlan faults into every
// connection's record stream. Spawn errors pass through untouched.
type ChaosTransport struct {
	Inner Transport
	Seed  uint64
	Plan  ChaosPlan
	// Logf narrates injected faults (useful when a chaos test fails);
	// nil discards.
	Logf func(format string, args ...any)

	spawns atomic.Int64
	faults atomic.Int64
}

func (t *ChaosTransport) logf(format string, args ...any) {
	if t.Logf != nil {
		t.Logf(format, args...)
	}
}

// takeFault consumes one unit of the fault budget; false when spent.
func (t *ChaosTransport) takeFault() bool {
	if t.Plan.MaxFaults <= 0 {
		return true
	}
	for {
		n := t.faults.Load()
		if n >= int64(t.Plan.MaxFaults) {
			return false
		}
		if t.faults.CompareAndSwap(n, n+1) {
			return true
		}
	}
}

// Faults reports how many faults were actually injected (tests assert
// the chaos was real).
func (t *ChaosTransport) Faults() int { return int(t.faults.Load()) }

// Start spawns through Inner and wraps the connection's stream in the
// fault lens. Each spawn gets its own RNG fork, so the fault schedule
// is a pure function of (Seed, spawn ordinal).
func (t *ChaosTransport) Start(spec Spec) (Conn, error) {
	conn, err := t.Inner.Start(spec)
	if err != nil {
		return nil, err
	}
	n := t.spawns.Add(1)
	rng := sim.NewRNG(t.Seed ^ chaosLabel).Fork(uint64(n))
	cc := &chaosConn{Conn: conn, t: t, si: spec.Shard, rng: rng}
	// Fault offsets are chosen to land inside a test-horizon stream
	// (one cell line is ~2 KiB): a cut beyond the stream's end would be a
	// scheduled fault that never fires.
	if rng.Bool(t.Plan.CutProb) {
		cc.cutAt = 512 + rng.Intn(8<<10)
	} else {
		cc.cutAt = -1
	}
	if rng.Bool(t.Plan.StallProb) {
		cc.stallAt = 256 + rng.Intn(4<<10)
	} else {
		cc.stallAt = -1
	}
	return cc, nil
}

// chaosConn delegates the process-control surface to the wrapped Conn
// and interposes only on the byte stream.
type chaosConn struct {
	Conn
	t   *ChaosTransport
	si  int
	rng *sim.RNG

	mu      sync.Mutex
	read    int    // stream bytes delivered so far
	cutAt   int    // reset the connection at this offset; -1 never
	stallAt int    // stall one read at this offset; -1 never
	recent  []byte // tail of delivered bytes, replay source
	pending []byte // queued replay bytes, served before real reads
}

// chaosRecentCap bounds the replay buffer: enough to span a full
// cell line (report + CRC) at test horizons.
const chaosRecentCap = 32 << 10

func (c *chaosConn) Output() io.Reader { return c }

func (c *chaosConn) Read(p []byte) (int, error) {
	c.mu.Lock()
	defer c.mu.Unlock()

	// Serve a queued replay first: the duplicated bytes arrive exactly
	// where a doubled TCP flush would put them — between real chunks.
	if len(c.pending) > 0 {
		n := copy(p, c.pending)
		c.pending = c.pending[n:]
		return n, nil
	}
	if c.cutAt >= 0 && c.read >= c.cutAt {
		c.cutAt = -1
		if c.t.takeFault() {
			// Reset: kill the underlying connection (the worker side sees
			// a broken pipe, like a real RST) and fail the read.
			c.t.logf("chaos: shard %d: connection reset after %d bytes", c.si, c.read)
			c.Conn.Kill()
			return 0, fmt.Errorf("chaos: connection reset")
		}
	}
	if c.stallAt >= 0 && c.read >= c.stallAt && c.t.takeFault() {
		c.stallAt = -1
		c.t.logf("chaos: shard %d: stalling %v at %d bytes", c.si, c.t.Plan.StallFor, c.read)
		time.Sleep(c.t.Plan.StallFor)
	}
	if c.rng.Bool(c.t.Plan.LatencyProb) && c.t.Plan.Latency > 0 {
		time.Sleep(c.t.Plan.Latency)
	}
	n, err := c.Conn.Output().Read(p)
	if n > 0 {
		c.read += n
		c.recent = append(c.recent, p[:n]...)
		if len(c.recent) > chaosRecentCap {
			c.recent = c.recent[len(c.recent)-chaosRecentCap:]
		}
		if c.rng.Bool(c.t.Plan.ReplayProb) && len(c.recent) > 0 && c.t.takeFault() {
			// Replay a suffix of what was already delivered: sometimes a
			// torn fragment, sometimes whole records — the ingest side
			// must count torn/dup and never double-ingest.
			cut := c.rng.Intn(len(c.recent))
			c.pending = append([]byte(nil), c.recent[cut:]...)
			c.t.logf("chaos: shard %d: replaying %d bytes", c.si, len(c.pending))
		}
	}
	return n, err
}
