package shard

import (
	"context"
	"errors"
	"io"
	"net"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/campaign"
	"repro/internal/obs"
)

// floodAgent serves a fake agent on loopback for the test's lifetime:
// it authenticates, acks the spec, then streams heartbeat frames until
// the socket fails, never reading a drain request. With crash, it drops
// the connection shortly after the ack, like an agent that died
// mid-stream.
func floodAgent(t *testing.T, crash bool) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	go func() {
		for {
			nc, err := ln.Accept()
			if err != nil {
				return
			}
			go func() {
				defer nc.Close()
				if handshakeAgent(nc, testKey) != nil {
					return
				}
				if ft, _, err := readFrame(nc); err != nil || ft != ftSpec {
					return
				}
				if writeFrame(nc, ftSpecOK, []byte{0, 0, 0, 1}) != nil {
					return
				}
				if crash {
					time.AfterFunc(100*time.Millisecond, func() { nc.Close() })
				}
				line := testLine(campaign.Message{Kind: "hb"})
				for writeFrame(nc, ftStream, line) == nil {
				}
			}()
		}
	}()
	return ln.Addr().String()
}

// TestConnLiveness is the supervisor's liveness contract over every
// Conn: exec, TCP, and chaos over each. The caller reads a little of a
// worker's stream, abandons Output(), and then kills the worker, runs
// the monitor's drain sequence (Terminate, then Kill once the drain
// bound passes), or lets the worker crash on its own. Wait must return,
// with a non-nil verdict, within a fixed bound. The workers ignore the
// drain request and keep streaming, so no row passes by the worker
// exiting politely.
func TestConnLiveness(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns worker processes")
	}
	const (
		drain = 200 * time.Millisecond // the monitor's drain bound, shortened
		bound = 10 * time.Second
	)
	transports := []struct {
		name string
		new  func(t *testing.T, crash bool) Transport
	}{
		{"exec", func(t *testing.T, crash bool) Transport {
			if crash {
				return modeTransport("floodcrash")
			}
			return modeTransport("flood")
		}},
		{"tcp", func(t *testing.T, crash bool) Transport {
			return &TCPTransport{Agents: []string{floodAgent(t, crash)}, Key: testKey}
		}},
	}
	endings := []string{"kill", "terminate", "crash"}
	for _, tt := range transports {
		for _, chaos := range []bool{false, true} {
			for _, end := range endings {
				name := tt.name
				if chaos {
					name = "chaos-" + name
				}
				t.Run(name+"/"+end, func(t *testing.T) {
					tr := tt.new(t, end == "crash")
					if chaos {
						tr = &ChaosTransport{Inner: tr, Seed: 7, Plan: ChaosPlan{
							LatencyProb: 0.5, Latency: time.Millisecond, ReplayProb: 0.2,
						}}
					}
					conn, err := tr.Start(Spec{Shard: 0, Matrix: []byte("{}"), Cells: []int{0}, Workers: 1, HB: time.Second})
					if err != nil {
						t.Fatal(err)
					}
					if _, err := io.ReadFull(conn.Output(), make([]byte, 64)); err != nil {
						t.Fatalf("read first stream bytes: %v", err)
					}
					// Output is abandoned from here on: the worker's next
					// writes block.
					waited := make(chan error, 1)
					switch end {
					case "kill":
						conn.Kill()
					case "terminate":
						conn.Terminate()
					}
					go func() { waited <- conn.Wait() }()
					deadline := time.After(bound)
					if end == "terminate" {
						select {
						case err := <-waited:
							waited <- err
						case <-time.After(drain):
							conn.Kill()
						}
					}
					select {
					case err := <-waited:
						if err == nil {
							t.Error("Wait = nil for a killed or crashed worker")
						}
					case <-deadline:
						t.Fatalf("Wait did not return within %v", bound)
					}
				})
			}
		}
	}
}

// scriptConn is a Conn whose stream the test writes one line at a time
// on lines; acked fires once the supervisor has scanned it. Kill ends
// the stream, and Wait reports whether Kill was called.
type scriptConn struct {
	lines  chan []byte
	acked  chan struct{}
	dead   chan struct{}
	once   sync.Once
	killed bool // set before dead closes
	fed    bool // read side only
}

func newScriptConn() *scriptConn {
	return &scriptConn{lines: make(chan []byte), acked: make(chan struct{}), dead: make(chan struct{})}
}

// Read hands out one fed line per call. The line reader calls it again
// only after handing out every line it already holds, so that call acks
// the previous line.
func (c *scriptConn) Read(p []byte) (int, error) {
	if c.fed {
		select {
		case c.acked <- struct{}{}:
		case <-c.dead:
			return 0, errConnKilled
		}
	}
	select {
	case line, ok := <-c.lines:
		if !ok {
			return 0, io.EOF
		}
		c.fed = true
		return copy(p, line), nil
	case <-c.dead:
		return 0, errConnKilled
	}
}

func (c *scriptConn) Output() io.Reader { return c }
func (c *scriptConn) Terminate()        {}
func (c *scriptConn) Pid() int          { return 0 }

func (c *scriptConn) Kill() {
	c.once.Do(func() {
		c.killed = true
		close(c.dead)
	})
}

func (c *scriptConn) Wait() error {
	select {
	case <-c.dead:
		return errors.New("killed")
	default:
		return nil
	}
}

// executorFunc adapts a function to campaign.Executor.
type executorFunc func(context.Context, *campaign.Ledger, *campaign.Result)

func (f executorFunc) Execute(ctx context.Context, l *campaign.Ledger, res *campaign.Result) {
	f(ctx, l, res)
}

// scriptTransport hands out one scripted connection.
type scriptTransport struct{ conn *scriptConn }

func (t scriptTransport) Start(Spec) (Conn, error) { return t.conn, nil }

// TestHangBudget drives the hang rule by hand: every tick is one
// heartbeat period, every line resets the silent count, the worker is
// killed as hung at hangBeats silent periods, and silence after its bye
// is not a hang. Ticks are synchronous with the monitor: each waits
// until the monitor has published the count it implies.
func TestHangBudget(t *testing.T) {
	const hb = time.Second
	for _, tc := range []struct {
		name    string
		script  string // t = tick, l = heartbeat line, b = bye line
		killed  bool
		verdict string
	}{
		{"19 silent beats", strings.Repeat("t", 19), false, "clean exit"},
		{"a line at beat 19 resets", strings.Repeat("t", 19) + "l" + strings.Repeat("t", 19), false, "clean exit"},
		{"20 silent beats", strings.Repeat("t", 20), true, "hang"},
		{"silence after bye", "b" + strings.Repeat("t", 20), true, "killed after bye"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			reg := obs.New()
			status := campaign.NewStatus(nil)
			conn := newScriptConn()
			ticks := make(chan time.Time)
			opt := &Options{
				Campaign:  campaign.Options{Obs: reg, Status: status},
				Transport: scriptTransport{conn},
				Logf:      t.Logf,
				ticks: func(period time.Duration) (<-chan time.Time, func()) {
					if period != hb {
						t.Errorf("tick period %v, want the heartbeat period %v", period, hb)
					}
					return ticks, func() {}
				},
			}
			// One spawn of a one-shard campaign's runner, on the
			// campaign's own ledger.
			done := make(chan error, 1)
			finished := make(chan struct{})
			go func() {
				defer close(finished)
				campaign.RunWith(context.Background(), testMatrix(), opt.Campaign, executorFunc(
					func(ctx context.Context, l *campaign.Ledger, _ *campaign.Result) {
						l.AddShards(1)
						r := &shardRunner{sup: &supervisor{opt: opt, l: l}, opt: opt, spec: Spec{HB: hb}}
						done <- r.runOnce(ctx, nil)
					}))
			}()
			defer func() {
				conn.Kill() // ends a spawn a failed step left running
				<-finished
			}()
			hbAge := reg.Gauge("campaign_shard00_hb_age_sec")

			// Each step blocks until the supervisor has taken it in; a
			// stream that ends early fails the test instead of hanging it.
			silent := 0
			for i, step := range tc.script {
				switch step {
				case 'l', 'b':
					line := testLine(campaign.Message{Kind: "hb"})
					if step == 'b' {
						line = testLine(campaign.Message{Kind: "bye"})
					}
					select {
					case conn.lines <- line:
						<-conn.acked
					case err := <-done:
						t.Fatalf("stream ended at step %d: %v", i, err)
					}
					silent = 0
				case 't':
					select {
					case ticks <- time.Time{}:
					case err := <-done:
						t.Fatalf("stream ended at step %d: %v", i, err)
					}
					silent++
					for deadline := time.Now().Add(5 * time.Second); hbAge.Value() != float64(silent); time.Sleep(time.Millisecond) {
						if time.Now().After(deadline) {
							t.Fatalf("monitor shows %v s of silence, want %d", hbAge.Value(), silent)
						}
					}
				}
			}
			if !tc.killed {
				close(conn.lines)
			}
			var err error
			select {
			case err = <-done:
			case <-time.After(5 * time.Second):
				t.Fatalf("worker still running after %d silent beats", silent)
			}

			if conn.killed != tc.killed {
				t.Errorf("killed = %v, want %v", conn.killed, tc.killed)
			}
			if (tc.verdict == "hang") != (err != nil && strings.HasPrefix(err.Error(), "hang")) {
				t.Errorf("runOnce = %v, want verdict %q", err, tc.verdict)
			}
			snap := status.Snapshot()
			if len(snap.Shards) != 1 || snap.Shards[0].LastNote != tc.verdict {
				t.Fatalf("status shards = %+v, want verdict %q", snap.Shards, tc.verdict)
			}
			if got := snap.Shards[0].HBAgeSec; got != float64(silent) {
				t.Errorf("/status hb_age_sec = %v, want %d silent beats × 1 s", got, silent)
			}
			want := uint64(0)
			if tc.verdict == "hang" {
				want = 1
			}
			if v := reg.Counter("campaign_shard_hangs").Value(); v != want {
				t.Errorf("campaign_shard_hangs = %d, want %d", v, want)
			}
		})
	}
}
