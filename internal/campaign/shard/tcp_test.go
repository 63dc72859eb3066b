package shard

import (
	"bytes"
	"context"
	"encoding/hex"
	"fmt"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/campaign"
	"repro/internal/obs"
	"repro/internal/profiling"
)

// testKey is a deliberately distinctive key: leak scans search every
// observable surface for these bytes (and their hex), so they must
// never occur by coincidence.
var testKey = []byte("tcp-test-shared-key-c0ffee-314159265358979")

// syncBuffer is a race-safe log sink tests can scan afterwards.
type syncBuffer struct {
	mu sync.Mutex
	b  bytes.Buffer
}

func (s *syncBuffer) logf(format string, args ...any) {
	s.mu.Lock()
	defer s.mu.Unlock()
	fmt.Fprintf(&s.b, format+"\n", args...)
}

func (s *syncBuffer) String() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.String()
}

// startTestAgent runs an Agent on an ephemeral loopback port for the
// test's lifetime and returns its address. Cleanup is a graceful
// shutdown: cancel, then wait for in-flight assignments to drain.
func startTestAgent(t testing.TB, a *Agent) string {
	t.Helper()
	ctx, cancel := context.WithCancel(context.Background())
	addrCh := make(chan net.Addr, 1)
	done := make(chan error, 1)
	go func() {
		done <- a.ListenAndServe(ctx, "127.0.0.1:0", func(ad net.Addr) { addrCh <- ad })
	}()
	var addr net.Addr
	select {
	case addr = <-addrCh:
	case err := <-done:
		t.Fatalf("agent failed to start: %v", err)
	}
	t.Cleanup(func() {
		cancel()
		if err := <-done; err != nil {
			t.Errorf("agent serve: %v", err)
		}
	})
	return addr.String()
}

// TestLoadKey: the key file contract — whitespace-trimmed raw bytes,
// with a hard floor under which authentication is theater.
func TestLoadKey(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "key")
	if err := os.WriteFile(path, []byte("  "+string(testKey)+"\n"), 0o600); err != nil {
		t.Fatal(err)
	}
	key, err := LoadKey(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(key, testKey) {
		t.Errorf("LoadKey did not trim to the raw key bytes")
	}
	if err := os.WriteFile(path, []byte("short"), 0o600); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadKey(path); err == nil || !strings.Contains(err.Error(), "at least") {
		t.Errorf("LoadKey accepted a %d-byte key: %v", len("short"), err)
	}
	if _, err := LoadKey(""); err == nil {
		t.Error("LoadKey accepted an empty path")
	}
	if _, err := LoadKey(filepath.Join(dir, "missing")); err == nil {
		t.Error("LoadKey accepted a missing file")
	}
}

// TestHandshake: the mutual challenge-response at the unit level —
// matched keys pass in both directions, a mismatch on either side
// fails both ends with nothing but errAuth, and the transcript on the
// wire never contains the key.
func TestHandshake(t *testing.T) {
	run := func(supKey, agentKey []byte) (supErr, agentErr error, wire []byte) {
		sc, ac := net.Pipe()
		defer sc.Close()
		defer ac.Close()
		// tap records everything the supervisor side sends/receives.
		var mu sync.Mutex
		var transcript bytes.Buffer
		tap := &tapConn{Conn: sc, mu: &mu, b: &transcript}
		errCh := make(chan error, 1)
		go func() {
			err := handshakeAgent(ac, agentKey)
			// Mirror the real agent: the connection closes the moment its
			// side of the handshake ends (net.Pipe writes are synchronous,
			// so a successful final frame is already delivered). Without
			// this, a rejecting agent would leave the supervisor blocked
			// waiting for ftAuthOK forever.
			ac.Close()
			errCh <- err
		}()
		supErr = handshakeSupervisor(tap, supKey)
		agentErr = <-errCh
		mu.Lock()
		wire = append([]byte(nil), transcript.Bytes()...)
		mu.Unlock()
		return
	}

	supErr, agentErr, wire := run(testKey, testKey)
	if supErr != nil || agentErr != nil {
		t.Fatalf("matched keys failed: sup=%v agent=%v", supErr, agentErr)
	}
	if bytes.Contains(wire, testKey) {
		t.Fatal("key bytes crossed the wire")
	}

	wrong := []byte("a-differently-wrong-key-0xDEADBEEF-271828")
	supErr, agentErr, wire = run(wrong, testKey)
	if supErr == nil || agentErr == nil {
		t.Fatalf("mismatched keys accepted: sup=%v agent=%v", supErr, agentErr)
	}
	if agentErr != errAuth {
		t.Errorf("agent rejection = %v, want bare errAuth (nothing to probe)", agentErr)
	}
	if bytes.Contains(wire, wrong) || bytes.Contains(wire, testKey) {
		t.Fatal("key bytes crossed the wire during a failed handshake")
	}

	// An agent speaking the previous protocol is refused before the
	// supervisor answers its challenge.
	sc, ac := net.Pipe()
	defer sc.Close()
	defer ac.Close()
	var mu sync.Mutex
	var transcript bytes.Buffer
	go func() {
		_ = writeFrame(ac, ftChallenge, append([]byte{ProtocolVersion - 1}, make([]byte, nonceLen)...))
		ac.Close()
	}()
	err := handshakeSupervisor(&tapConn{Conn: sc, mu: &mu, b: &transcript}, testKey)
	want := fmt.Sprintf("agent speaks protocol v%d, supervisor v%d", ProtocolVersion-1, ProtocolVersion)
	if err == nil || !strings.Contains(err.Error(), want) {
		t.Errorf("v%d challenge: handshake = %v, want %q", ProtocolVersion-1, err, want)
	}
	mu.Lock()
	defer mu.Unlock()
	if bytes.Contains(transcript.Bytes(), testKey) || bytes.Contains(transcript.Bytes(), sign(testKey, labelSupervisor, make([]byte, nonceLen))) {
		t.Error("key-derived bytes crossed the wire to an agent of another version")
	}
}

// tapConn copies everything written through it (both directions pass
// through the supervisor side in net.Pipe tests).
type tapConn struct {
	net.Conn
	mu *sync.Mutex
	b  *bytes.Buffer
}

func (c *tapConn) Write(p []byte) (int, error) {
	c.mu.Lock()
	c.b.Write(p)
	c.mu.Unlock()
	return c.Conn.Write(p)
}

func (c *tapConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	if n > 0 {
		c.mu.Lock()
		c.b.Write(p[:n])
		c.mu.Unlock()
	}
	return n, err
}

// TestTCPDeterminism is the remote analogue of TestShardDeterminism:
// the same campaign over loopback agents must aggregate byte-identical
// to the in-process reference AND to the exec-transport run — the
// transport is invisible in the result.
func TestTCPDeterminism(t *testing.T) {
	if testing.Short() {
		t.Skip("runs full campaigns")
	}
	m := testMatrix()
	ref := refProfileJSON(t, m)

	execRes, err := Run(context.Background(), m, Options{
		Campaign:  campaign.Options{Workers: 2},
		Shards:    2,
		Transport: modeTransport("worker"),
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := profileJSON(t, execRes.Profile); !bytes.Equal(got, ref) {
		t.Fatal("exec-transport aggregate differs from in-process reference")
	}

	for _, agents := range []int{1, 2} {
		t.Run(fmt.Sprintf("agents=%d", agents), func(t *testing.T) {
			var pool []string
			for i := 0; i < agents; i++ {
				pool = append(pool, startTestAgent(t, &Agent{Key: testKey, Logf: t.Logf}))
			}
			res, err := Run(context.Background(), m, Options{
				Campaign: campaign.Options{Workers: 2},
				Shards:   2,
				Transport: &TCPTransport{
					Agents: pool,
					Key:    testKey,
					Logf:   t.Logf,
				},
				Logf: t.Logf,
			})
			if err != nil {
				t.Fatal(err)
			}
			if res.Failed > 0 || res.Completed != res.Cells {
				t.Fatalf("completed %d/%d, failed %d: %v", res.Completed, res.Cells, res.Failed, res.Errors)
			}
			if got := profileJSON(t, res.Profile); !bytes.Equal(got, ref) {
				t.Errorf("TCP aggregate differs from in-process/exec reference")
			}
		})
	}
}

// TestTCPConnObs: the per-shard connection observability contract —
// dials and stream bytes are counted for every shard that ran.
func TestTCPConnObs(t *testing.T) {
	if testing.Short() {
		t.Skip("runs full campaigns")
	}
	m := testMatrix()
	reg := obs.New()
	addr := startTestAgent(t, &Agent{Key: testKey, Logf: t.Logf})
	res, err := Run(context.Background(), m, Options{
		Campaign: campaign.Options{Workers: 2, Obs: reg},
		Shards:   2,
		Transport: &TCPTransport{
			Agents: []string{addr},
			Key:    testKey,
			Obs:    reg,
			Logf:   t.Logf,
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Failed > 0 {
		t.Fatalf("failed %d: %v", res.Failed, res.Errors)
	}
	snap := reg.Snapshot()
	if v, _ := snap.Counter("campaign_tcp_dials"); v < 2 {
		t.Errorf("campaign_tcp_dials = %d, want >=2 (one per shard)", v)
	}
	for si := 0; si < 2; si++ {
		if v, _ := snap.Counter(fmt.Sprintf("campaign_shard%02d_dials", si)); v < 1 {
			t.Errorf("shard %d dial counter = %d, want >=1", si, v)
		}
		if v, _ := snap.Counter(fmt.Sprintf("campaign_shard%02d_net_bytes", si)); v == 0 {
			t.Errorf("shard %d streamed 0 accounted bytes", si)
		}
	}
	if v, _ := snap.Counter("campaign_tcp_bytes"); v == 0 {
		t.Error("campaign_tcp_bytes = 0")
	}
}

// TestTCPChaosDeterminism is the tentpole proof: a journaled sharded
// campaign over TCP under seeded network chaos — latency spikes,
// mid-record connection cuts, heartbeat-starving stalls, duplicate
// partial replays — still aggregates byte-identical to the untouched
// in-process reference, with the journal holding exactly one "done"
// per cell.
func TestTCPChaosDeterminism(t *testing.T) {
	if testing.Short() {
		t.Skip("runs full campaigns under injected chaos")
	}
	m := testMatrix()
	ref := refProfileJSON(t, m)
	dir := t.TempDir()
	reg := obs.New()
	addr := startTestAgent(t, &Agent{Key: testKey, Logf: t.Logf})

	chaos := &ChaosTransport{
		Inner: &TCPTransport{
			Agents: []string{addr},
			Key:    testKey,
			Logf:   t.Logf,
		},
		Seed: 7,
		Plan: ChaosPlan{
			// High per-spawn probabilities so the run provably suffers:
			// MaxFaults (not luck) is what lets it converge, and the
			// respawn budget below exceeds the worst-case fault split.
			CutProb:     0.9,
			StallProb:   0.4,
			StallFor:    1500 * time.Millisecond,
			LatencyProb: 0.05,
			Latency:     10 * time.Millisecond,
			ReplayProb:  0.05,
			MaxFaults:   5,
		},
		Logf: t.Logf,
	}
	res, err := Run(context.Background(), m, Options{
		Campaign:       campaign.Options{Workers: 1, Obs: reg, JournalDir: dir},
		Shards:         2,
		Transport:      chaos,
		heartbeatEvery: 50 * time.Millisecond, // hang budget 20 × 50 ms, under the 1.5 s stall
		Retries:        8,
		retryBackoff:   20 * time.Millisecond,
		Logf:           t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Failed > 0 || res.Completed != res.Cells {
		t.Fatalf("completed %d/%d, failed %d: %v", res.Completed, res.Cells, res.Failed, res.Errors)
	}
	if got := profileJSON(t, res.Profile); !bytes.Equal(got, ref) {
		t.Errorf("chaos-run aggregate differs from undisturbed reference")
	}
	if chaos.Faults() == 0 {
		t.Error("chaos plan injected no faults; the proof proved nothing (retune probabilities)")
	}
	t.Logf("chaos: %d faults injected, %d respawns, %d torn, %d dup records",
		chaos.Faults(), res.Restarts, res.Torn, res.Dup)

	// Journal audit: every cell landed exactly once, no matter how many
	// times its bytes crossed the wire.
	doneCount := journalDoneCounts(t, dir)
	for idx := 0; idx < res.Cells; idx++ {
		if doneCount[idx] != 1 {
			t.Errorf("journal has %d done entries for cell %d, want exactly 1", doneCount[idx], idx)
		}
	}
	snap := reg.Snapshot()
	if v, _ := snap.Counter("campaign_sessions_done"); int(v) != res.Cells {
		t.Errorf("campaign_sessions_done = %d, want %d (dups must not double-count)", v, res.Cells)
	}
}

// TestTCPWrongKey: a supervisor with the wrong key is rejected by the
// agent, the campaign fails closed (no records, no cells), and not one
// key-derived byte appears on any observable surface — supervisor log,
// agent log, flight-recorder events, journal, or metrics.
func TestTCPWrongKey(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a (failing) campaign")
	}
	agentKey := []byte("agent-side-key-0xFACEFEED-1618033988749895")
	supKey := []byte("supervisor-key-0xB16B00B5-2718281828459045")

	var agentLog, supLog syncBuffer
	agentReg := obs.New()
	addr := startTestAgent(t, &Agent{Key: agentKey, Logf: agentLog.logf, Obs: agentReg})

	m := testMatrix()
	m.Seeds = 1
	m.Faults = []string{"clean"} // 2 cells; the campaign can't run anyway
	dir := t.TempDir()
	reg := obs.New()
	ev := obs.NewEventLog(1024)
	status := campaign.NewStatus(ev)
	res, err := Run(context.Background(), m, Options{
		Campaign: campaign.Options{Workers: 1, Obs: reg, JournalDir: dir, Status: status},
		Shards:   1,
		Transport: &TCPTransport{
			Agents: []string{addr},
			Key:    supKey,
			Obs:    reg,
			Status: status,
			Logf:   supLog.logf,
		},
		Retries:      1,
		retryBackoff: 10 * time.Millisecond,
		Logf:         supLog.logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Completed != 0 || res.Failed != res.Cells {
		t.Fatalf("wrong-key campaign completed %d cells, failed %d of %d; want fail-closed", res.Completed, res.Failed, res.Cells)
	}
	snap := reg.Snapshot()
	if v, _ := snap.Counter("campaign_tcp_handshake_failures"); v < 1 {
		t.Errorf("campaign_tcp_handshake_failures = %d, want >=1", v)
	}
	agentSnap := agentReg.Snapshot()
	if v, _ := agentSnap.Counter("agent_handshake_failures"); v < 1 {
		t.Errorf("agent_handshake_failures = %d, want >=1", v)
	}

	// Collect every observable surface.
	var evs bytes.Buffer
	if err := ev.WriteJSONL(&evs); err != nil {
		t.Fatal(err)
	}
	var journal bytes.Buffer
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range ents {
		b, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		journal.Write(b)
	}
	rec := httptest.NewRecorder()
	reg.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/metrics", nil))
	surfaces := map[string]string{
		"supervisor log": supLog.String(),
		"agent log":      agentLog.String(),
		"event stream":   evs.String(),
		"journal":        journal.String(),
		"metrics":        rec.Body.String(),
	}
	for name, text := range surfaces {
		for _, key := range [][]byte{agentKey, supKey} {
			if strings.Contains(text, string(key)) || strings.Contains(text, hex.EncodeToString(key)) {
				t.Errorf("%s leaks key material", name)
			}
		}
	}
	// The failure itself must be visible (terse, but present).
	if !strings.Contains(supLog.String(), "authentication failed") {
		t.Errorf("supervisor log does not report the auth failure:\n%s", supLog.String())
	}
}

// TestTCPFailover: with a dead agent first in the pool, Start fails
// over to the live one and the campaign completes; the next spawn for
// that shard goes straight to the live agent (rotation is remembered).
func TestTCPFailover(t *testing.T) {
	if testing.Short() {
		t.Skip("runs full campaigns")
	}
	// A listener bound and immediately closed: a guaranteed-dead
	// address that was valid moments ago — the realistic failover case.
	dead, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	deadAddr := dead.Addr().String()
	dead.Close()
	live := startTestAgent(t, &Agent{Key: testKey, Logf: t.Logf})

	m := testMatrix()
	ref := refProfileJSON(t, m)
	reg := obs.New()
	res, err := Run(context.Background(), m, Options{
		Campaign: campaign.Options{Workers: 2, Obs: reg},
		Shards:   2,
		Transport: &TCPTransport{
			Agents: []string{deadAddr, live},
			Key:    testKey,
			Obs:    reg,
			Logf:   t.Logf,
		},
		Logf: t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Failed > 0 || res.Completed != res.Cells {
		t.Fatalf("completed %d/%d, failed %d: %v", res.Completed, res.Cells, res.Failed, res.Errors)
	}
	if got := profileJSON(t, res.Profile); !bytes.Equal(got, ref) {
		t.Errorf("failover aggregate differs from reference")
	}
	// Shard 0 prefers pool slot 0 (the dead agent), so at least one
	// extra dial must have happened.
	snap := reg.Snapshot()
	if v, _ := snap.Counter("campaign_tcp_dials"); v < 3 {
		t.Errorf("campaign_tcp_dials = %d, want >=3 (2 shards + >=1 failover)", v)
	}
}

// TestTCPDrainAndResume: cancel mid-campaign maps graceful drain onto
// the socket (ftTerm, bounded wait), the journal survives, and a
// resumed run over the same agent completes to the byte-identical
// aggregate.
func TestTCPDrainAndResume(t *testing.T) {
	if testing.Short() {
		t.Skip("runs full campaigns")
	}
	m := testMatrix()
	ref := refProfileJSON(t, m)
	dir := t.TempDir()
	addr := startTestAgent(t, &Agent{Key: testKey, Logf: t.Logf})
	transport := func() *TCPTransport {
		return &TCPTransport{Agents: []string{addr}, Key: testKey, Logf: t.Logf}
	}

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var cancelOnce sync.Once
	res, err := Run(ctx, m, Options{
		Campaign: campaign.Options{
			Workers:    1,
			JournalDir: dir,
			OnReport: func(campaign.Cell, *profiling.RunReport) {
				cancelOnce.Do(cancel)
			},
		},
		Shards:    2,
		Transport: transport(),
		Logf:      t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Canceled {
		t.Fatal("canceled campaign not marked canceled")
	}
	if res.Completed == 0 {
		t.Fatal("no cells journaled before cancel; cannot exercise resume")
	}
	if res.Completed == res.Cells {
		t.Skip("campaign finished before drain; nothing left to resume")
	}

	res2, err := Run(context.Background(), m, Options{
		Campaign:  campaign.Options{Workers: 1, JournalDir: dir, Resume: true},
		Shards:    2,
		Transport: transport(),
		Logf:      t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res2.Resumed == 0 {
		t.Error("resume loaded no journaled cells")
	}
	if res2.Failed > 0 || res2.Completed != res2.Cells {
		t.Fatalf("resume completed %d/%d, failed %d: %v", res2.Completed, res2.Cells, res2.Failed, res2.Errors)
	}
	if got := profileJSON(t, res2.Profile); !bytes.Equal(got, ref) {
		t.Errorf("drain+resume aggregate differs from uninterrupted reference")
	}
}

// TestAgentRejectsGarbage: a peer that connects and sends junk (or a
// well-formed frame of the wrong type) is dropped before any worker
// starts, and the failure is counted.
func TestAgentRejectsGarbage(t *testing.T) {
	reg := obs.New()
	addr := startTestAgent(t, &Agent{Key: testKey, Logf: t.Logf, Obs: reg})

	// Raw junk bytes.
	nc, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	nc.Write([]byte("GET / HTTP/1.1\r\n\r\n"))
	buf := make([]byte, 4096)
	nc.SetReadDeadline(time.Now().Add(5 * time.Second))
	for {
		// Drain the challenge frame; the connection must close without
		// ever yielding a spec-ok or stream frame.
		if _, err := nc.Read(buf); err != nil {
			break
		}
	}
	nc.Close()

	// A valid challenge answered with a zero MAC.
	nc2, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	if ft, _, err := readFrame(nc2); err != nil || ft != ftChallenge {
		t.Fatalf("no challenge from agent: frame %d, %v", ft, err)
	}
	if err := writeFrame(nc2, ftAuth, make([]byte, 64)); err != nil {
		t.Fatal(err)
	}
	nc2.SetReadDeadline(time.Now().Add(5 * time.Second))
	if ft, _, err := readFrame(nc2); err == nil {
		t.Fatalf("agent answered a zero-MAC peer with frame type %d", ft)
	}
	nc2.Close()

	deadline := time.Now().Add(5 * time.Second)
	for {
		snap := reg.Snapshot()
		if v, _ := snap.Counter("agent_handshake_failures"); v >= 2 {
			break
		}
		if time.Now().After(deadline) {
			v, _ := snap.Counter("agent_handshake_failures")
			t.Fatalf("agent_handshake_failures = %d, want >=2", v)
		}
		time.Sleep(10 * time.Millisecond)
	}
	final := reg.Snapshot()
	if v, _ := final.Counter("agent_assignments_total"); v != 0 {
		t.Errorf("unauthenticated peers started %d assignments", v)
	}
}
