// TCP transport: the supervisor side of remote shard workers. It
// implements the same narrow Transport/Conn seam the exec transport
// does, so the supervisor's crash/hang/torn classification, journal-
// before-done ordering, and ingest re-verification apply to a socket
// exactly as they do to a pipe — the network only adds failure modes,
// never new trust:
//
//   - dial/handshake failures and mid-stream resets surface as spawn
//     errors or non-nil Wait, which the supervisor already classifies
//     as crashes and respawns with seed-derived jittered backoff;
//   - a stalled connection starves the heartbeat lines riding the
//     stream, so the supervisor's hang budget runs out; the socket read
//     deadline (refreshed per frame, twice the hang budget) is the
//     belt-and-braces backstop;
//   - torn or bit-flipped frames fail the frame CRC and kill the
//     connection, and anything that slips through still faces each
//     stream line's CRC and the seed cross-check on ingest.
//
// Each Start dials one agent from the pool; when an agent is down the
// transport fails over to the next one immediately, and the
// supervisor's respawn budget (-shardretries) bounds the overall
// redial schedule.
package shard

import (
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/campaign"
	"repro/internal/obs"
)

// TCP transport timeouts.
const (
	// DefaultDialTimeout bounds one connection attempt to one agent.
	DefaultDialTimeout = 5 * time.Second
	// DefaultHandshakeTimeout bounds the authentication + spec-upload
	// exchange after the socket is up.
	DefaultHandshakeTimeout = 10 * time.Second
	// WriteTimeout bounds any single frame write, so a stalled peer
	// cannot wedge the writing side forever.
	WriteTimeout = 30 * time.Second
)

// TCPTransport starts shard workers on remote tcfleet agents. It is
// safe for concurrent Start calls (the supervisor spawns all shards in
// parallel).
type TCPTransport struct {
	// Agents is the ordered agent pool ("host:port", ...). Shard s
	// prefers agent s mod len(Agents) so a multi-agent fleet spreads
	// load; on failure the dial fails over round-robin.
	Agents []string
	// Key is the shared authentication key (LoadKey). Required; never
	// logged.
	Key []byte
	// Obs receives per-shard connection counters (dials, redials,
	// handshake failures, stream bytes) alongside the supervisor's
	// per-shard gauges; nil disables them.
	Obs *obs.Registry
	// Status receives connection anomalies (handshake failures,
	// failovers) on the flight-recorder/scoreboard surface; nil
	// disables.
	Status *campaign.Status
	// Logf receives dial/failover diagnostics; nil discards. Messages
	// never contain key material.
	Logf func(format string, args ...any)

	mu    sync.Mutex
	rot   map[int]int // per-shard rotation offset into Agents after failover
	dials map[int]int // per-shard dial count, to tell redials from first dials
}

func (t *TCPTransport) logf(format string, args ...any) {
	if t.Logf != nil {
		t.Logf(format, args...)
	}
}

// Start dials an agent for the spec's shard, authenticates, uploads
// the spec, and returns the live connection. When an agent is
// unreachable or fails the handshake it fails over across the whole
// pool before giving up; the supervisor's respawn budget and backoff
// govern when Start is tried again.
func (t *TCPTransport) Start(spec Spec) (Conn, error) {
	if len(t.Agents) == 0 {
		return nil, fmt.Errorf("shard: TCPTransport has no agents")
	}
	if len(t.Key) < MinKeyLen {
		return nil, fmt.Errorf("shard: TCPTransport key shorter than %d bytes", MinKeyLen)
	}
	si := spec.Shard
	t.mu.Lock()
	if t.rot == nil {
		t.rot = map[int]int{}
		t.dials = map[int]int{}
	}
	start := si + t.rot[si]
	t.mu.Unlock()

	var lastErr error
	for i := 0; i < len(t.Agents); i++ {
		addr := t.Agents[(start+i)%len(t.Agents)]
		t.mu.Lock()
		t.dials[si]++
		redial := t.dials[si] > 1
		t.mu.Unlock()
		t.countDial(si, redial)
		conn, err := t.dialAgent(addr, spec)
		if err != nil {
			lastErr = fmt.Errorf("agent %s: %w", addr, err)
			t.logf("shard %d: %v", si, lastErr)
			if errors.Is(err, errAuth) {
				t.Obs.Counter(fmt.Sprintf("campaign_shard%02d_handshake_failures", si)).Inc()
				t.Obs.Counter("campaign_tcp_handshake_failures").Inc()
				t.Status.ShardAnomaly(si, "handshake_failure", fmt.Sprintf("agent %s rejected or failed authentication", addr))
			}
			continue
		}
		if i > 0 {
			// Remember the working agent so the next spawn for this shard
			// starts there instead of re-probing the dead one.
			t.mu.Lock()
			t.rot[si] = (t.rot[si] + i) % len(t.Agents)
			t.mu.Unlock()
			t.Status.ShardAnomaly(si, "failover", fmt.Sprintf("failed over to agent %s", addr))
		}
		t.logf("shard %d: connected to agent %s (agent pid %d)", si, addr, conn.Pid())
		return conn, nil
	}
	return nil, fmt.Errorf("no agent accepted shard %d (pool of %d): %w", si, len(t.Agents), lastErr)
}

// countDial ticks the per-shard and aggregate dial counters.
func (t *TCPTransport) countDial(si int, redial bool) {
	t.Obs.Counter(fmt.Sprintf("campaign_shard%02d_dials", si)).Inc()
	t.Obs.Counter("campaign_tcp_dials").Inc()
	if redial {
		t.Obs.Counter(fmt.Sprintf("campaign_shard%02d_redials", si)).Inc()
		t.Obs.Counter("campaign_tcp_redials").Inc()
	}
}

// dialAgent performs one full connection setup against one agent:
// dial, mutual handshake, spec upload, ack.
func (t *TCPTransport) dialAgent(addr string, spec Spec) (*tcpConn, error) {
	nc, err := net.DialTimeout("tcp", addr, DefaultDialTimeout)
	if err != nil {
		return nil, err
	}
	// One deadline covers the whole handshake + spec exchange; cleared
	// once the connection graduates to streaming.
	if err := nc.SetDeadline(time.Now().Add(DefaultHandshakeTimeout)); err != nil {
		nc.Close()
		return nil, err
	}
	if err := handshakeSupervisor(nc, t.Key); err != nil {
		nc.Close()
		// Every handshake-phase failure counts as an authentication
		// failure for classification: a wrong-keyed agent doesn't announce
		// the mismatch, it just drops the connection, and from this side
		// that EOF is indistinguishable from a rejected MAC. The detail
		// (never key-derived) rides along for the log.
		if errors.Is(err, errAuth) {
			return nil, err
		}
		return nil, fmt.Errorf("%w (%v)", errAuth, err)
	}
	specJSON, err := json.Marshal(spec)
	if err != nil {
		nc.Close()
		return nil, err
	}
	if err := writeFrame(nc, ftSpec, specJSON); err != nil {
		nc.Close()
		return nil, fmt.Errorf("spec upload: %w", err)
	}
	ft, payload, err := readFrame(nc)
	if err != nil {
		nc.Close()
		return nil, fmt.Errorf("spec ack: %w", err)
	}
	if ft != ftSpecOK || len(payload) != 4 {
		nc.Close()
		return nil, fmt.Errorf("spec ack: unexpected frame type %d", ft)
	}
	if err := nc.SetDeadline(time.Time{}); err != nil {
		nc.Close()
		return nil, err
	}
	pr, pw := io.Pipe()
	c := &tcpConn{
		c:   nc,
		pr:  pr,
		pw:  pw,
		pid: int(binary.BigEndian.Uint32(payload)),
		// Twice the supervisor's hang budget (floored at the handshake
		// bound), so the monitor's kill normally wins and the socket
		// deadline only catches a transport stalled so hard even Close
		// would have nothing to interrupt.
		readTimeout: max(2*hangBeats*spec.HB, DefaultHandshakeTimeout),
		bytes:       t.Obs.Counter(fmt.Sprintf("campaign_shard%02d_net_bytes", spec.Shard)),
		bytesAgg:    t.Obs.Counter("campaign_tcp_bytes"),
		done:        make(chan struct{}),
	}
	go c.readLoop()
	return c, nil
}

// tcpConn adapts one authenticated agent connection to the Conn seam.
// The frame stream is decoded on a background goroutine into a pipe,
// so Output() hands the supervisor exactly the worker's stdout bytes —
// the same message lines an exec'd worker writes — while ftExit and read errors are
// folded into Wait's verdict.
type tcpConn struct {
	c           net.Conn
	pr          *io.PipeReader
	pw          *io.PipeWriter
	wmu         sync.Mutex
	pid         int
	readTimeout time.Duration
	bytes       *obs.Counter
	bytesAgg    *obs.Counter

	killed  atomic.Bool
	done    chan struct{}
	waitErr error // valid after done closes
}

func (c *tcpConn) Output() io.Reader { return c.pr }

// Terminate maps graceful drain onto the socket: a ftTerm control
// frame tells the agent to cancel the worker's context, the remote
// analogue of SIGTERM. The bounded wait and the hard close stay with
// the supervisor's monitor, exactly as for the exec transport.
func (c *tcpConn) Terminate() {
	c.wmu.Lock()
	defer c.wmu.Unlock()
	_ = c.c.SetWriteDeadline(time.Now().Add(WriteTimeout))
	_ = writeFrame(c.c, ftTerm, nil)
}

// Kill closes the socket immediately. The agent sees the reset and
// cancels its worker; the read loop unblocks and Wait reports the
// connection as killed. The record pipe is closed too: a caller that
// stopped reading Output() would otherwise leave the read loop parked
// in a pipe write that no socket close can interrupt.
func (c *tcpConn) Kill() {
	c.killed.Store(true)
	_ = c.c.Close()
	_ = c.pr.CloseWithError(errConnKilled)
}

var (
	errConnKilled   = errors.New("shard: connection killed")
	errOutputClosed = errors.New("shard: output closed before the stream ended")
)

// Wait closes the record pipe before it waits: stream bytes the caller
// has not read are discarded. Otherwise a caller that abandoned Output()
// would leave the read loop parked in a pipe write, blind to the peer
// dropping the socket, and Wait would never return.
func (c *tcpConn) Wait() error {
	_ = c.pr.CloseWithError(errOutputClosed)
	<-c.done
	return c.waitErr
}

func (c *tcpConn) Pid() int { return c.pid }

// readLoop decodes the agent's frame stream until exit or failure,
// refreshing the read deadline per frame: heartbeat lines ride the
// stream at the worker's cadence, so a healthy connection always has
// a frame in flight well inside the deadline.
func (c *tcpConn) readLoop() {
	exitCode := -1
	var err error
loop:
	for {
		if derr := c.c.SetReadDeadline(time.Now().Add(c.readTimeout)); derr != nil {
			err = derr
			break
		}
		ft, payload, rerr := readFrame(c.c)
		if rerr != nil {
			err = rerr
			break
		}
		switch ft {
		case ftStream:
			c.bytes.Add(uint64(len(payload)))
			c.bytesAgg.Add(uint64(len(payload)))
			if _, werr := c.pw.Write(payload); werr != nil {
				err = werr
				break loop
			}
		case ftExit:
			if len(payload) == 4 {
				exitCode = int(int32(binary.BigEndian.Uint32(payload)))
			} else {
				err = fmt.Errorf("shard: malformed exit frame (%d bytes)", len(payload))
			}
			break loop
		default:
			// Unknown frame types from a newer agent are liveness, not
			// data; skip them (the frame CRC already vouched for them).
		}
	}
	switch {
	case exitCode == 0:
		c.waitErr = nil
	case exitCode > 0:
		c.waitErr = fmt.Errorf("worker exit status %d", exitCode)
	case c.killed.Load():
		c.waitErr = fmt.Errorf("connection killed")
	default:
		c.waitErr = fmt.Errorf("connection lost: %v", err)
	}
	// EOF the record pipe only after every streamed byte is delivered;
	// the supervisor's scanner drains to EOF and then calls Wait.
	_ = c.pw.Close()
	_ = c.c.Close()
	close(c.done)
}
