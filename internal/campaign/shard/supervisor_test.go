package shard

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/campaign"
	"repro/internal/obs"
	"repro/internal/profiling"
)

// testMatrix is 8 cells (2 seeds × 2 SoCs × 1 mix × 2 faults × 1
// resolution) at a short horizon — small enough that a full sharded
// determinism sweep stays in test-suite time, structured enough that a
// wrong seed or a lost cell changes the aggregate.
func testMatrix() campaign.Matrix {
	return campaign.Matrix{
		Name:        "shard-test",
		Seed:        42,
		Seeds:       2,
		SoCs:        []string{"TC1797", "TC1767"},
		Mixes:       []string{"lean"},
		Faults:      []string{"clean", "everything"},
		Resolutions: []uint64{500},
		Cycles:      20_000,
	}
}

func profileJSON(t *testing.T, fp *profiling.FleetProfile) []byte {
	t.Helper()
	if fp == nil {
		t.Fatal("nil fleet profile")
	}
	var buf bytes.Buffer
	if err := fp.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// refProfileJSON runs the matrix in-process (the PR3/PR4-proven path)
// as the byte-identity reference for every sharded run.
func refProfileJSON(t *testing.T, m campaign.Matrix) []byte {
	t.Helper()
	res, err := campaign.Run(context.Background(), m, campaign.Options{Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	if res.Failed > 0 {
		t.Fatalf("reference run failed %d cells: %v", res.Failed, res.Errors)
	}
	return profileJSON(t, res.Profile)
}

// modeTransport execs this test binary as a worker in the given
// SHARD_TEST_MODE (see TestMain).
func modeTransport(mode string) *ExecTransport {
	return &ExecTransport{
		Argv:   []string{os.Args[0]},
		Env:    []string{"SHARD_TEST_MODE=" + mode},
		Stderr: os.Stderr,
	}
}

// captureTransport records every spawned spec and connection so tests
// can kill live workers and audit what a respawn was assigned.
type captureTransport struct {
	inner Transport
	mu    sync.Mutex
	specs []Spec
	conns []Conn
}

func (c *captureTransport) Start(spec Spec) (Conn, error) {
	conn, err := c.inner.Start(spec)
	if err != nil {
		return nil, err
	}
	c.mu.Lock()
	c.specs = append(c.specs, spec)
	c.conns = append(c.conns, conn)
	c.mu.Unlock()
	return conn, nil
}

// latestConn returns the most recently spawned connection for a shard.
func (c *captureTransport) latestConn(si int) Conn {
	c.mu.Lock()
	defer c.mu.Unlock()
	for i := len(c.specs) - 1; i >= 0; i-- {
		if c.specs[i].Shard == si {
			return c.conns[i]
		}
	}
	return nil
}

// shardSpecs returns the spawn specs for one shard, in spawn order.
func (c *captureTransport) shardSpecs(si int) []Spec {
	c.mu.Lock()
	defer c.mu.Unlock()
	var out []Spec
	for _, s := range c.specs {
		if s.Shard == si {
			out = append(out, s)
		}
	}
	return out
}

// flakyTransport serves the first badSpawns spawns from bad, the rest
// from good — the deterministic way to script "worker breaks once, the
// respawn succeeds".
type flakyTransport struct {
	bad, good Transport
	badSpawns int32
	n         atomic.Int32
}

func (f *flakyTransport) Start(spec Spec) (Conn, error) {
	if f.n.Add(1) <= f.badSpawns {
		return f.bad.Start(spec)
	}
	return f.good.Start(spec)
}

// TestShardDeterminism is the shards-1-vs-N proof: the global aggregate
// is byte-identical to the in-process reference for every shard count ×
// per-shard worker count combination.
func TestShardDeterminism(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns worker processes")
	}
	m := testMatrix()
	ref := refProfileJSON(t, m)
	for _, shards := range []int{1, 2, 8} {
		for _, workers := range []int{1, 4} {
			t.Run(fmt.Sprintf("shards=%d/workers=%d", shards, workers), func(t *testing.T) {
				res, err := Run(context.Background(), m, Options{
					Campaign:  campaign.Options{Workers: workers},
					Shards:    shards,
					Transport: modeTransport("worker"),
				})
				if err != nil {
					t.Fatal(err)
				}
				if res.Failed > 0 || res.Completed != res.Cells {
					t.Fatalf("completed %d/%d, failed %d: %v", res.Completed, res.Cells, res.Failed, res.Errors)
				}
				if got := profileJSON(t, res.Profile); !bytes.Equal(got, ref) {
					t.Errorf("sharded aggregate differs from in-process reference")
				}
			})
		}
	}
}

// TestShardSIGKILLRecovery: a live worker is SIGKILLed mid-flight; the
// supervisor must classify the crash, respawn with backoff assigning
// only the non-journaled cells, and still produce the byte-identical
// aggregate — with the journal holding exactly one "done" per cell.
func TestShardSIGKILLRecovery(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns worker processes")
	}
	m := testMatrix()
	ref := refProfileJSON(t, m)
	dir := t.TempDir()
	reg := obs.New()
	cap := &captureTransport{inner: modeTransport("worker")}

	var killOnce sync.Once
	opt := Options{
		Campaign: campaign.Options{
			Workers:    1,
			Obs:        reg,
			JournalDir: dir,
			OnReport: func(cell campaign.Cell, _ *profiling.RunReport) {
				// First ingested report from shard 0 (indices 0-3 of 8 at 2
				// shards): the worker is provably alive and mid-campaign —
				// kill it now, exactly the harness-SIGKILL the issue demands.
				if cell.Index < 4 {
					killOnce.Do(func() {
						if c := cap.latestConn(0); c != nil {
							c.Kill()
						}
					})
				}
			},
		},
		Shards:       2,
		Transport:    cap,
		Retries:      2,
		retryBackoff: 20 * time.Millisecond,
		Logf:         t.Logf,
	}
	res, err := Run(context.Background(), m, opt)
	if err != nil {
		t.Fatal(err)
	}
	if res.Failed > 0 || res.Completed != res.Cells {
		t.Fatalf("completed %d/%d, failed %d: %v", res.Completed, res.Cells, res.Failed, res.Errors)
	}
	if res.Restarts < 1 {
		t.Fatalf("SIGKILLed shard produced %d restarts, want >=1", res.Restarts)
	}
	if got := profileJSON(t, res.Profile); !bytes.Equal(got, ref) {
		t.Errorf("aggregate after SIGKILL+recovery differs from undisturbed reference")
	}

	snap := reg.Snapshot()
	if v, _ := snap.Counter("campaign_shard_restarts"); v < 1 {
		t.Errorf("campaign_shard_restarts = %d, want >=1", v)
	}
	if v, _ := snap.Counter("campaign_shard_crashes"); v < 1 {
		t.Errorf("campaign_shard_crashes = %d, want >=1", v)
	}
	if v, ok := snap.Gauge("campaign_shard00_restarts"); !ok || v < 1 {
		t.Errorf("campaign_shard00_restarts gauge = %v (present %v), want >=1", v, ok)
	}
	if v, _ := snap.Counter("campaign_sessions_done"); v != 8 {
		t.Errorf("campaign_sessions_done = %d, want 8 (dups must not double-count)", v)
	}

	// The respawn must be assigned strictly fewer cells: only the ones
	// not yet journaled done at kill time.
	specs := cap.shardSpecs(0)
	if len(specs) < 2 {
		t.Fatalf("shard 0 spawned %d times, want >=2", len(specs))
	}
	first, second := specs[0].Cells, specs[1].Cells
	if len(second) >= len(first) {
		t.Errorf("respawn re-assigned %d cells of original %d; journaled-done cells must be skipped", len(second), len(first))
	}
	firstSet := map[int]bool{}
	for _, idx := range first {
		firstSet[idx] = true
	}
	for _, idx := range second {
		if !firstSet[idx] {
			t.Errorf("respawn assigned cell %d outside shard 0's original range %v", idx, first)
		}
	}

	// Journal audit: exactly one "done" entry per cell, none duplicated
	// by the replayed shard.
	doneCount := journalDoneCounts(t, dir)
	for idx := 0; idx < 8; idx++ {
		if doneCount[idx] != 1 {
			t.Errorf("journal has %d done entries for cell %d, want exactly 1", doneCount[idx], idx)
		}
	}
}

// journalDoneCounts reads the journal through the line codec and
// counts "cell" lines per cell index; a torn line fails the test.
func journalDoneCounts(t *testing.T, dir string) map[int]int {
	t.Helper()
	f, err := os.Open(filepath.Join(dir, campaign.JournalName))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	counts := map[int]int{}
	l := campaign.NewLineReader(f, campaign.MaxLine)
	for {
		m, err := l.Next()
		if err != nil {
			break
		}
		if m.Kind == "cell" {
			counts[m.Index]++
		}
	}
	if l.Torn() != 0 {
		t.Errorf("journal has %d torn lines", l.Torn())
	}
	return counts
}

// TestShardHangRecovery: a worker that says hello and then goes silent
// is killed as hung once its budget of silent heartbeat periods runs
// out, and a respawn completes the shard. The first spawn's liveness
// ticks fire every millisecond; the respawn's never fire, so the
// healthy worker cannot be misjudged however slowly it runs or exits
// (under -race the runtime sleeps a second at exit, after the bye).
func TestShardHangRecovery(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns worker processes")
	}
	m := testMatrix()
	m.Seeds = 1
	m.Faults = []string{"clean"} // 2 cells: quick
	ref := refProfileJSON(t, m)
	reg := obs.New()
	var spawns atomic.Int32
	res, err := Run(context.Background(), m, Options{
		Campaign:     campaign.Options{Workers: 1, Obs: reg},
		Shards:       1,
		Transport:    &flakyTransport{bad: modeTransport("hang"), good: modeTransport("worker"), badSpawns: 1},
		Retries:      2,
		retryBackoff: 10 * time.Millisecond,
		Logf:         t.Logf,
		ticks: func(time.Duration) (<-chan time.Time, func()) {
			if spawns.Add(1) > 1 {
				return nil, func() {}
			}
			tk := time.NewTicker(time.Millisecond)
			return tk.C, tk.Stop
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Failed > 0 || res.Completed != res.Cells {
		t.Fatalf("completed %d/%d, failed %d: %v", res.Completed, res.Cells, res.Failed, res.Errors)
	}
	if res.Restarts != 1 {
		t.Errorf("restarts = %d, want 1 (the hung spawn's respawn only)", res.Restarts)
	}
	if got := profileJSON(t, res.Profile); !bytes.Equal(got, ref) {
		t.Errorf("aggregate after hang+recovery differs from reference")
	}
	snap := reg.Snapshot()
	if v, _ := snap.Counter("campaign_shard_hangs"); v != 1 {
		t.Errorf("campaign_shard_hangs = %d, want 1", v)
	}
}

// TestShardTornWorkerRecovery: a worker that exits 0 after emitting a
// torn record delivered nothing; the clean exit must still be treated
// as an incomplete shard and respawned.
func TestShardTornWorkerRecovery(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns worker processes")
	}
	m := testMatrix()
	m.Seeds = 1
	m.Faults = []string{"clean"}
	ref := refProfileJSON(t, m)
	reg := obs.New()
	res, err := Run(context.Background(), m, Options{
		Campaign:     campaign.Options{Workers: 1, Obs: reg},
		Shards:       1,
		Transport:    &flakyTransport{bad: modeTransport("torn"), good: modeTransport("worker"), badSpawns: 1},
		Retries:      2,
		retryBackoff: 10 * time.Millisecond,
		Logf:         t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Failed > 0 || res.Completed != res.Cells {
		t.Fatalf("completed %d/%d, failed %d: %v", res.Completed, res.Cells, res.Failed, res.Errors)
	}
	if res.Restarts < 1 {
		t.Fatal("torn shard was not respawned")
	}
	if got := profileJSON(t, res.Profile); !bytes.Equal(got, ref) {
		t.Errorf("aggregate after torn-worker recovery differs from reference")
	}
	snap := reg.Snapshot()
	if v, _ := snap.Counter("campaign_shard_torn_records"); v < 1 {
		t.Errorf("campaign_shard_torn_records = %d, want >=1", v)
	}
}

// TestShardBudgetExhausted: a shard that crashes on every spawn fails
// its remaining cells as transient once the respawn budget is spent —
// the campaign survives and reports, it does not hang or lie.
func TestShardBudgetExhausted(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns worker processes")
	}
	m := testMatrix()
	m.Seeds = 1
	m.Faults = []string{"clean"}
	reg := obs.New()
	res, err := Run(context.Background(), m, Options{
		Campaign:     campaign.Options{Workers: 1, Obs: reg},
		Shards:       1,
		Transport:    modeTransport("crash"),
		Retries:      1,
		retryBackoff: 5 * time.Millisecond,
		Logf:         t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Completed != 0 || res.Failed != res.Cells {
		t.Fatalf("completed %d, failed %d of %d; want 0 completed, all failed", res.Completed, res.Failed, res.Cells)
	}
	for _, ce := range res.Errors {
		if ce.Class != campaign.ClassTransient {
			t.Errorf("cell %s failed as %s, want transient (a healthier fleet could retry it)", ce.Cell.ID, ce.Class)
		}
		if !strings.Contains(ce.Err.Error(), "unrecoverable") {
			t.Errorf("cell %s error does not explain shard exhaustion: %v", ce.Cell.ID, ce.Err)
		}
	}
	snap := reg.Snapshot()
	if v, _ := snap.Counter("campaign_shard_crashes"); v < 2 {
		t.Errorf("campaign_shard_crashes = %d, want >=2 (initial spawn + respawn)", v)
	}
}

// TestShardDrainAndResume: cancel drains workers gracefully mid-
// campaign, and a second sharded run resumes from the journal to the
// byte-identical aggregate — the cross-process analogue of PR4's
// interrupt/resume determinism proof.
func TestShardDrainAndResume(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns worker processes")
	}
	m := testMatrix()
	ref := refProfileJSON(t, m)
	dir := t.TempDir()

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var cancelOnce sync.Once
	res, err := Run(ctx, m, Options{
		Campaign: campaign.Options{
			Workers:    1,
			JournalDir: dir,
			OnReport: func(campaign.Cell, *profiling.RunReport) {
				// Cancel as soon as any cell lands: workers are mid-flight.
				cancelOnce.Do(cancel)
			},
		},
		Shards:    2,
		Transport: modeTransport("worker"),
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
		Campaign: campaign.Options{
			Workers:    1,
			JournalDir: dir,
			Resume:     true,
		},
		Shards:    2,
		Transport: modeTransport("worker"),
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

// TestShardResumeAnnouncesCellsInIndexOrder: resuming a fully journaled
// sharded campaign announces its cell_resumed events in cell-index
// order, so /events and the -events log repeat from run to run. The
// sharded supervisor and the in-process pool resume through the same
// campaign ledger, so both are checked against the same journal.
func TestShardResumeAnnouncesCellsInIndexOrder(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns worker processes")
	}
	m := testMatrix()
	m.Seeds = 4 // 16 journaled cells
	cells, err := m.Expand()
	if err != nil {
		t.Fatal(err)
	}
	var want []string
	for _, c := range cells {
		want = append(want, c.ID)
	}
	dir := t.TempDir()
	ctx := context.Background()
	res, err := Run(ctx, m, Options{
		Campaign:  campaign.Options{Workers: 1, JournalDir: dir},
		Shards:    2,
		Transport: modeTransport("worker"),
		Logf:      t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Completed != res.Cells {
		t.Fatalf("journaling run completed %d/%d cells: %v", res.Completed, res.Cells, res.Errors)
	}

	for _, tc := range []struct {
		name string
		run  func(campaign.Options) (*campaign.Result, error)
	}{
		{"sharded", func(o campaign.Options) (*campaign.Result, error) {
			return Run(ctx, m, Options{Campaign: o, Shards: 2, Transport: modeTransport("worker"), Logf: t.Logf})
		}},
		{"in-process", func(o campaign.Options) (*campaign.Result, error) {
			return campaign.Run(ctx, m, o)
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			events := obs.NewEventLog(4 * len(cells))
			res, err := tc.run(campaign.Options{JournalDir: dir, Resume: true, Status: campaign.NewStatus(events)})
			if err != nil {
				t.Fatal(err)
			}
			if res.Resumed != len(cells) {
				t.Fatalf("resumed %d cells, want %d", res.Resumed, len(cells))
			}
			var got []string
			for _, ev := range events.Snapshot().Events {
				if ev.Kind == "cell_resumed" {
					got = append(got, ev.Cell)
				}
			}
			if strings.Join(got, " ") != strings.Join(want, " ") {
				t.Errorf("cell_resumed order:\n got %v\nwant %v", got, want)
			}
		})
	}
}

// TestShardSpanStitching: a sharded run with a tracer yields ONE
// coherent Chrome trace — the supervisor's campaign phases on pid 1 and
// every worker's spans on that shard's own pid row (si+2), with
// process_name metadata labeling each row. The telemetry plane must
// also leave the aggregate byte-identical, and the live Status
// scoreboard must account for every cell and shard.
func TestShardSpanStitching(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns worker processes")
	}
	m := testMatrix()
	ref := refProfileJSON(t, m)
	tr := obs.NewTracer()
	ev := obs.NewEventLog(1024)
	status := campaign.NewStatus(ev)
	const shards = 2
	res, err := Run(context.Background(), m, Options{
		Campaign:  campaign.Options{Workers: 2, Tracer: tr, Status: status},
		Shards:    shards,
		Transport: modeTransport("worker"),
		Logf:      t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Failed > 0 || res.Completed != res.Cells {
		t.Fatalf("completed %d/%d, failed %d: %v", res.Completed, res.Cells, res.Failed, res.Errors)
	}
	if got := profileJSON(t, res.Profile); !bytes.Equal(got, ref) {
		t.Errorf("traced sharded aggregate differs from reference (telemetry must not perturb)")
	}

	ct := tr.Trace()
	procNames := map[int]string{}
	spansByPid := map[int]int{}
	cellSpans := 0
	for _, e := range ct.TraceEvents {
		switch e.Ph {
		case "M":
			if e.Name == "process_name" {
				procNames[e.Pid] = e.Args["name"]
			}
		case "X":
			spansByPid[e.Pid]++
			if strings.HasPrefix(e.Name, "cell:") {
				cellSpans++
			}
		}
	}
	for pid := 1; pid <= shards+1; pid++ {
		if procNames[pid] == "" {
			t.Errorf("no process_name metadata for pid %d (have %v)", pid, procNames)
		}
		if spansByPid[pid] == 0 {
			t.Errorf("no spans on pid row %d: %v", pid, spansByPid)
		}
	}
	if cellSpans != res.Cells {
		t.Errorf("stitched trace has %d cell spans, want one per cell (%d)", cellSpans, res.Cells)
	}
	// Supervisor phases stay on pid 1.
	names := map[string]bool{}
	for _, e := range ct.TraceEvents {
		if e.Ph == "X" && e.Pid == 1 {
			names[e.Name] = true
		}
	}
	for _, phase := range []string{"expand", "execute", "aggregate"} {
		if !names[phase] {
			t.Errorf("supervisor phase %q missing from pid 1", phase)
		}
	}

	// The scoreboard agrees with the result.
	snap := status.Snapshot()
	if snap.Done != res.Cells || snap.Running != 0 || snap.Pending != 0 {
		t.Errorf("status snapshot = %+v, want all %d cells done", snap, res.Cells)
	}
	if len(snap.Shards) != shards {
		t.Fatalf("status tracks %d shards, want %d", len(snap.Shards), shards)
	}
	for _, sh := range snap.Shards {
		if sh.Alive {
			t.Errorf("shard %d still alive after campaign end", sh.Shard)
		}
		if sh.PID == 0 {
			t.Errorf("shard %d has no recorded pid", sh.Shard)
		}
	}
	// And the flight recorder saw the lifecycle.
	kinds := map[string]int{}
	for _, e := range ev.Snapshot().Events {
		kinds[e.Kind]++
	}
	if kinds["shard_spawn"] != shards {
		t.Errorf("flight recorder has %d shard_spawn events, want %d", kinds["shard_spawn"], shards)
	}
	if kinds["cell_done"] != res.Cells {
		t.Errorf("flight recorder has %d cell_done events, want %d", kinds["cell_done"], res.Cells)
	}
	if kinds["shard_down"] != shards {
		t.Errorf("flight recorder has %d shard_down events, want %d", kinds["shard_down"], shards)
	}
}

// TestRunWorkerRejects: an assignment that fails the spec check exits
// 2 with one line on stderr naming the problem, before any cell runs —
// a worker that expanded another campaign, or was handed a corrupted
// cell list, must not emit mis-seeded or misattributed records.
func TestRunWorkerRejects(t *testing.T) {
	m := testMatrix()
	matrix, err := json.Marshal(m)
	if err != nil {
		t.Fatal(err)
	}
	valid := Spec{Matrix: matrix, Cells: []int{0, 1}, Workers: 1}
	for _, tc := range []struct {
		name string
		edit func(*Spec)
		want string
	}{
		{"unknown matrix field", func(s *Spec) {
			s.Matrix = append(append(json.RawMessage(nil), matrix[:len(matrix)-1]...), `,"shards":4}`...)
		}, `unknown field "shards"`},
		{"duplicate cell", func(s *Spec) { s.Cells = []int{1, 1} }, "strictly ascending"},
		{"descending cells", func(s *Spec) { s.Cells = []int{3, 2} }, "strictly ascending"},
		{"cell past the expansion", func(s *Spec) { s.Cells = []int{0, 8} }, "outside expansion"},
		{"negative cell", func(s *Spec) { s.Cells = []int{-1} }, "outside expansion"},
		{"negative retries", func(s *Spec) { s.Retries = -1 }, "negative retry budget"},
		{"negative cell timeout", func(s *Spec) { s.CellTimeout = -time.Second }, "negative cell timeout"},
		{"hash mismatch", func(s *Spec) { s.Hash = "not-the-real-hash" }, "hash mismatch"},
		{"matrix past the cell cap", func(s *Spec) { s.Matrix = json.RawMessage(`{"seeds":2000000000}`) }, "more than 65536 cells"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			spec := valid
			tc.edit(&spec)
			var out, errb bytes.Buffer
			if code := RunWorker(context.Background(), spec, &out, &errb); code != 2 {
				t.Fatalf("exit %d, want 2 (stderr %q)", code, errb.String())
			}
			if lines := strings.Split(strings.TrimSuffix(errb.String(), "\n"), "\n"); len(lines) != 1 || !strings.Contains(lines[0], tc.want) {
				t.Errorf("stderr %q, want one line mentioning %q", errb.String(), tc.want)
			}
			if strings.Contains(out.String(), `"kind":"cell"`) {
				t.Errorf("rejected worker emitted cell lines: %q", out.String())
			}
		})
	}
}

// TestWorkerMainInProcess drives RunWorker directly over in-memory
// buffers: reports come back verified, attributed, and seeded exactly as
// the expansion dictates.
func TestWorkerMainInProcess(t *testing.T) {
	m := testMatrix()
	cells, err := m.Expand()
	if err != nil {
		t.Fatal(err)
	}
	matrix, err := json.Marshal(m)
	if err != nil {
		t.Fatal(err)
	}
	spec := Spec{Matrix: matrix, Cells: []int{2, 3}, Workers: 2, HB: 50 * time.Millisecond}
	var out, errb bytes.Buffer
	code := RunWorker(context.Background(), spec, &out, &errb)
	if code != 0 {
		t.Fatalf("worker exited %d: %s", code, errb.String())
	}
	l := campaign.NewLineReader(&out, campaign.MaxLine)
	var hello, bye bool
	got := map[int]*profiling.RunReport{}
	for {
		m, err := l.Next()
		if err != nil {
			break
		}
		switch m.Kind {
		case "hello":
			hello = m.Version == ProtocolVersion && m.Hash == campaign.MatrixHash(cells)
		case "bye":
			bye = true
		case "cell":
			r, err := profiling.ReadRunReport(bytes.NewReader(m.Report))
			if err != nil {
				t.Fatal(err)
			}
			got[m.Index] = r
		}
	}
	if l.Torn() != 0 {
		t.Errorf("worker stream counted %d torn lines", l.Torn())
	}
	if !hello || !bye {
		t.Errorf("protocol frame incomplete: hello=%v bye=%v", hello, bye)
	}
	if len(got) != 2 {
		t.Fatalf("worker returned %d records, want 2", len(got))
	}
	for _, idx := range spec.Cells {
		r := got[idx]
		if r == nil {
			t.Fatalf("no record for cell %d", idx)
		}
		if r.Seed != cells[idx].Run.Seed {
			t.Errorf("cell %d record seed %d, want expansion seed %d", idx, r.Seed, cells[idx].Run.Seed)
		}
	}
}
