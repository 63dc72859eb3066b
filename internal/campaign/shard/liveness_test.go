package shard

import (
	"io"
	"net"
	"testing"
	"time"
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
				line := []byte("//shard hb done=0\n")
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
					conn, err := tr.Start(Spec{Shard: 0, Shards: 1, Matrix: []byte("{}"), Cells: "0", Workers: 1, HB: time.Second})
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
