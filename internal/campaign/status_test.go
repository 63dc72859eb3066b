package campaign

import (
	"encoding/json"
	"errors"
	"net/http/httptest"
	"testing"
	"time"

	"repro/internal/obs"
	"repro/internal/profiling"
)

func statusCells(n int) []Cell {
	cells := make([]Cell, n)
	for i := range cells {
		cells[i] = Cell{Index: i, ID: string(rune('a' + i))}
	}
	return cells
}

// statusLedger binds s to the record of a campaign over cells whose
// execution has begun.
func statusLedger(name string, cells []Cell, s *Status) *Ledger {
	l := newLedger(name, cells, &Options{Status: s})
	l.start = time.Now()
	return l
}

// TestStatusUnbound: a scoreboard no campaign has bound yet serves the
// empty scoreboard, and a nil one (a transport without telemetry) drops
// shard anomalies.
func TestStatusUnbound(t *testing.T) {
	s := NewStatus(nil)
	snap := s.Snapshot()
	if snap.Cells != 0 || snap.CellStates == nil || snap.ETASec != -1 {
		t.Errorf("unbound snapshot = %+v", snap)
	}
	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, httptest.NewRequest("GET", "/status", nil))
	if rec.Code != 200 {
		t.Errorf("unbound ServeHTTP status %d", rec.Code)
	}
	s.ShardAnomaly(0, "handshake_failure", "x")
	var none *Status
	none.ShardAnomaly(0, "handshake_failure", "x")
}

// TestStatusCellLifecycle walks one cell through every state and checks
// the scoreboard counts plus the flight-recorder trail.
func TestStatusCellLifecycle(t *testing.T) {
	ev := obs.NewEventLog(64)
	s := NewStatus(ev)
	cells := statusCells(4)
	l := statusLedger("lifecycle", cells, s)

	snap := s.Snapshot()
	if snap.Campaign != "lifecycle" || snap.Cells != 4 || snap.Pending != 4 {
		t.Fatalf("post-Begin snapshot = %+v", snap)
	}
	if snap.ETASec != -1 {
		t.Errorf("ETA with no throughput = %v, want -1", snap.ETASec)
	}

	l.started(cells[0], 1)
	l.retrying(cells[0], 1, errors.New("flaky"))
	l.started(cells[0], 2)
	if _, err := l.Complete(cells[0], 2, &profiling.RunReport{Cycles: 1000}); err != nil {
		t.Fatal(err)
	}
	l.started(cells[1], 1)
	l.Fail(CellError{Cell: cells[1], Class: ClassPermanent, Err: errors.New("bad preset")})
	l.resume(map[int]*profiling.RunReport{2: {Cycles: 500}}, nil)
	l.started(cells[3], 1)

	snap = s.Snapshot()
	if snap.Done != 1 || snap.Failed != 1 || snap.Resumed != 1 || snap.Running != 1 || snap.Pending != 0 {
		t.Fatalf("counts = %+v", snap)
	}
	if snap.SimCycles != 1500 {
		t.Errorf("sim cycles = %d, want 1500 (done + resumed)", snap.SimCycles)
	}
	if snap.CellsPerSec <= 0 || snap.ETASec < 0 {
		t.Errorf("throughput math: cells/s=%v eta=%v", snap.CellsPerSec, snap.ETASec)
	}
	if snap.CellStates["a"] != "done" || snap.CellStates["b"] != "failed" ||
		snap.CellStates["c"] != "resumed" || snap.CellStates["d"] != "running" {
		t.Errorf("cell states = %v", snap.CellStates)
	}

	// The flight recorder saw every transition, in order.
	var kinds []string
	for _, e := range ev.Snapshot().Events {
		kinds = append(kinds, e.Kind)
	}
	want := []string{"campaign_begin", "cell_start", "cell_retry", "cell_start",
		"cell_done", "cell_start", "cell_failed", "cell_resumed", "cell_start"}
	if len(kinds) != len(want) {
		t.Fatalf("event kinds = %v, want %v", kinds, want)
	}
	for i := range want {
		if kinds[i] != want[i] {
			t.Errorf("event %d = %s, want %s", i, kinds[i], want[i])
		}
	}
}

// TestStatusShardLifecycle: spawn/silence/down bookkeeping, including
// the running→pending demotion of a dead shard's cells.
func TestStatusShardLifecycle(t *testing.T) {
	s := NewStatus(nil) // no recorder: state tracking must work alone
	cells := statusCells(4)
	l := statusLedger("shards", cells, s)
	l.AddShards(2)
	l.ShardSpawned(0, 101, []int{0, 1})
	l.ShardSpawned(1, 102, []int{2, 3})

	snap := s.Snapshot()
	if len(snap.Shards) != 2 || snap.Running != 4 {
		t.Fatalf("post-spawn snapshot = %+v", snap)
	}
	if snap.Shards[0].Shard != 0 || snap.Shards[1].Shard != 1 {
		t.Errorf("shards not ordered: %+v", snap.Shards)
	}
	if !snap.Shards[0].Alive || snap.Shards[0].PID != 101 || snap.Shards[0].HBAgeSec != 0 {
		t.Errorf("shard 0 snap = %+v", snap.Shards[0])
	}
	// The heartbeat age is the supervisor's per-tick silence count.
	l.ShardSilent(0, 1500*time.Millisecond)
	if got := s.Snapshot().Shards[0].HBAgeSec; got != 1.5 {
		t.Errorf("shard 0 hb_age_sec = %v, want 1.5", got)
	}

	if _, err := l.Complete(cells[0], 1, &profiling.RunReport{Cycles: 10}); err != nil {
		t.Fatal(err)
	}
	l.ShardDown(0, "crash")
	snap = s.Snapshot()
	sh0 := snap.Shards[0]
	if sh0.Alive || sh0.LastNote != "crash" || sh0.Done != 1 {
		t.Errorf("post-crash shard 0 = %+v", sh0)
	}
	// Cell 1 was running on the dead shard: nobody is executing it now.
	if snap.CellStates["b"] != "pending" {
		t.Errorf("dead shard's cell state = %s, want pending", snap.CellStates["b"])
	}
	// Shard 1's cells are untouched.
	if snap.CellStates["c"] != "running" || snap.CellStates["d"] != "running" {
		t.Errorf("live shard's cells perturbed: %v", snap.CellStates)
	}

	// The respawn reclaims the cell and bumps the restart count.
	l.ShardCount(0, ShardRestarts, 1)
	l.ShardSpawned(0, 103, []int{1})
	snap = s.Snapshot()
	if snap.Shards[0].Restarts != 1 || snap.Shards[0].PID != 103 || snap.Shards[0].HBAgeSec != 0 {
		t.Errorf("post-respawn shard 0 = %+v", snap.Shards[0])
	}
	if snap.CellStates["b"] != "running" {
		t.Errorf("reassigned cell state = %s", snap.CellStates["b"])
	}
}

// TestStatusServeHTTP: the endpoint serves the snapshot as JSON that
// decodes back into StatusSnap.
func TestStatusServeHTTP(t *testing.T) {
	s := NewStatus(nil)
	cells := statusCells(2)
	l := statusLedger("http", cells, s)
	l.started(cells[0], 1)
	if _, err := l.Complete(cells[0], 1, &profiling.RunReport{Cycles: 42}); err != nil {
		t.Fatal(err)
	}

	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, httptest.NewRequest("GET", "/status", nil))
	if rec.Code != 200 {
		t.Fatalf("status %d", rec.Code)
	}
	if ct := rec.Header().Get("Content-Type"); ct != "application/json; charset=utf-8" {
		t.Errorf("content type %q", ct)
	}
	var snap StatusSnap
	if err := json.Unmarshal(rec.Body.Bytes(), &snap); err != nil {
		t.Fatalf("/status body not a StatusSnap: %v", err)
	}
	if snap.Campaign != "http" || snap.Done != 1 || snap.Cells != 2 || snap.SimCycles != 42 {
		t.Errorf("served snapshot = %+v", snap)
	}
}
