package campaign

import (
	"encoding/json"
	"errors"
	"net/http/httptest"
	"testing"
	"time"

	"repro/internal/obs"
)

func statusCells(n int) []Cell {
	cells := make([]Cell, n)
	for i := range cells {
		cells[i] = Cell{Index: i, ID: string(rune('a' + i))}
	}
	return cells
}

// TestStatusNilSafe: every Status method must be a no-op on nil — the
// disabled-telemetry contract of the whole obs plane.
func TestStatusNilSafe(t *testing.T) {
	var s *Status
	s.Begin("c", statusCells(2))
	s.CellStarted(0, 1)
	s.CellRetryScheduled(0, 1, errors.New("x"))
	s.CellCompleted(0, 10)
	s.CellFailedTerminally(1, ClassPermanent, errors.New("x"))
	s.CellResumedFromJournal(0, 10)
	s.CellsAssigned(0, []int{0, 1})
	s.ShardSpawned(0, 42, 0, 2)
	s.ShardSilent(0, time.Second)
	s.ShardDown(0, "clean")
	s.ShardAnomaly(0, "torn_records", "x")
	snap := s.Snapshot()
	if snap.Cells != 0 || snap.CellStates == nil {
		t.Errorf("nil snapshot = %+v", snap)
	}
	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, httptest.NewRequest("GET", "/status", nil))
	if rec.Code != 200 {
		t.Errorf("nil ServeHTTP status %d", rec.Code)
	}
}

// TestStatusCellLifecycle walks one cell through every state and checks
// the scoreboard counts plus the flight-recorder trail.
func TestStatusCellLifecycle(t *testing.T) {
	ev := obs.NewEventLog(64)
	s := NewStatus(ev)
	s.Begin("lifecycle", statusCells(4))

	snap := s.Snapshot()
	if snap.Campaign != "lifecycle" || snap.Cells != 4 || snap.Pending != 4 {
		t.Fatalf("post-Begin snapshot = %+v", snap)
	}
	if snap.ETASec != -1 {
		t.Errorf("ETA with no throughput = %v, want -1", snap.ETASec)
	}

	s.CellStarted(0, 1)
	s.CellRetryScheduled(0, 1, errors.New("flaky"))
	s.CellStarted(0, 2)
	s.CellCompleted(0, 1000)
	s.CellStarted(1, 1)
	s.CellFailedTerminally(1, ClassPermanent, errors.New("bad preset"))
	s.CellResumedFromJournal(2, 500)
	s.CellStarted(3, 1)

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
	s.Begin("shards", statusCells(4))
	s.ShardSpawned(0, 101, 0, 2)
	s.CellsAssigned(0, []int{0, 1})
	s.ShardSpawned(1, 102, 0, 2)
	s.CellsAssigned(1, []int{2, 3})

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
	s.ShardSilent(0, 1500*time.Millisecond)
	if got := s.Snapshot().Shards[0].HBAgeSec; got != 1.5 {
		t.Errorf("shard 0 hb_age_sec = %v, want 1.5", got)
	}

	s.CellCompleted(0, 10)
	s.ShardDown(0, "crash")
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
	s.ShardSpawned(0, 103, 1, 1)
	s.CellsAssigned(0, []int{1})
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
	s.Begin("http", statusCells(2))
	s.CellStarted(0, 1)
	s.CellCompleted(0, 42)

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
