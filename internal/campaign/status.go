// Status: the live campaign scoreboard behind the /status endpoint.
// The obs registry answers "how much work has happened"; Status answers
// the operator's actual questions mid-campaign: which cells are in
// which state, which shards are alive and how stale their heartbeats
// are, what the throughput is and when the campaign will finish. It is
// a view of the campaign ledger's record, which counts every statistic
// once; every transition also lands in the flight-recorder EventLog
// (when one is attached), so /status is the current frame and /events
// is the film. Status never touches reports or the aggregate — it
// observes the campaign, it cannot perturb its byte-identical
// determinism contract.
package campaign

import (
	"encoding/json"
	"fmt"
	"net/http"
	"sync/atomic"
	"time"

	"repro/internal/obs"
)

// CellState is one cell's position in the campaign state machine:
//
//	pending → running → done
//	                  ↘ retrying → running → ...
//	                  ↘ failed
//	resumed (terminal: loaded from the journal, never executed here)
//
// Sharded campaigns observe worker cells at ingest granularity — a
// shard-executed cell goes pending → done/failed when its record lands,
// with "running" only for cells the supervisor knows are assigned to a
// live shard.
type CellState string

const (
	CellPending  CellState = "pending"
	CellRunning  CellState = "running"
	CellRetrying CellState = "retrying"
	CellDone     CellState = "done"
	CellFailed   CellState = "failed"
	CellResumed  CellState = "resumed"
)

// Status is the /status endpoint of a campaign: a handle the caller
// passes in Options.Status and RunWith binds to the campaign's ledger.
// It keeps no state of its own — every snapshot reads the ledger's
// record — and carries the flight-recorder EventLog the ledger appends
// its transitions to.
type Status struct {
	events *obs.EventLog
	l      atomic.Pointer[Ledger]
}

// NewStatus returns an unbound scoreboard; events may be nil (state
// only, no flight recorder).
func NewStatus(events *obs.EventLog) *Status {
	return &Status{events: events}
}

// ShardAnomaly records a supervision anomaly a shard transport sees
// (a failed handshake, a failover) as the shard's last note and a
// flight-recorder event. A transport may run without a scoreboard, so
// a nil Status drops it.
func (s *Status) ShardAnomaly(si int, kind, detail string) {
	if s == nil {
		return
	}
	if l := s.l.Load(); l != nil {
		l.ShardNote(si, kind, detail)
	}
}

// StatusSnap is the /status JSON document.
type StatusSnap struct {
	Campaign   string  `json:"campaign"`
	Cells      int     `json:"cells"`
	Pending    int     `json:"pending"`
	Running    int     `json:"running"`
	Retrying   int     `json:"retrying"`
	Done       int     `json:"done"`
	Failed     int     `json:"failed"`
	Resumed    int     `json:"resumed"`
	ElapsedSec float64 `json:"elapsed_sec"`
	// CellsPerSec is the throughput of this run: cells completed here
	// (resumed ones excluded) over elapsed time; ETASec extrapolates it
	// over the remaining cells (-1 when no throughput yet).
	CellsPerSec float64           `json:"cells_per_sec"`
	ETASec      float64           `json:"eta_sec"`
	SimCycles   uint64            `json:"sim_cycles"`
	Shards      []ShardSnap       `json:"shards,omitempty"`
	CellStates  map[string]string `json:"cell_states"`
}

// ShardSnap is one shard's live state in the /status document.
type ShardSnap struct {
	Shard    int     `json:"shard"`
	PID      int     `json:"pid"`
	Alive    bool    `json:"alive"`
	Restarts int     `json:"restarts"`
	Done     int     `json:"done"`
	HBAgeSec float64 `json:"hb_age_sec"`
	LastNote string  `json:"last_note,omitempty"`
}

// Snapshot assembles the current scoreboard from the bound ledger's
// record; before RunWith binds one, it is the empty scoreboard.
func (s *Status) Snapshot() StatusSnap {
	l := s.l.Load()
	if l == nil {
		return StatusSnap{CellStates: map[string]string{}, ETASec: -1}
	}
	return l.snapshot()
}

// snapshot reads the scoreboard off the record.
func (l *Ledger) snapshot() StatusSnap {
	l.mu.Lock()
	defer l.mu.Unlock()
	t := l.tally()
	snap := StatusSnap{
		Campaign:   l.name,
		Cells:      len(l.cells),
		Pending:    t.cells[CellPending],
		Running:    t.cells[CellRunning],
		Retrying:   t.cells[CellRetrying],
		Done:       t.cells[CellDone],
		Failed:     t.cells[CellFailed],
		Resumed:    t.cells[CellResumed],
		SimCycles:  t.cycles,
		CellStates: make(map[string]string, len(l.cells)),
		ETASec:     -1,
	}
	if !l.start.IsZero() {
		snap.ElapsedSec = time.Since(l.start).Seconds()
	}
	for i, c := range l.recs {
		snap.CellStates[l.cells[i].ID] = string(c.state)
	}
	if snap.Done > 0 && snap.ElapsedSec > 0 {
		snap.CellsPerSec = float64(snap.Done) / snap.ElapsedSec
		remaining := snap.Pending + snap.Running + snap.Retrying
		snap.ETASec = float64(remaining) / snap.CellsPerSec
	}
	for si, sh := range l.shards {
		snap.Shards = append(snap.Shards, ShardSnap{
			Shard:    si,
			PID:      sh.pid,
			Alive:    sh.alive,
			Restarts: sh.n[ShardRestarts],
			Done:     sh.done,
			HBAgeSec: sh.silent.Seconds(),
			LastNote: sh.note,
		})
	}
	return snap
}

// ServeHTTP implements the /status endpoint: the snapshot as indented
// JSON.
func (s *Status) ServeHTTP(w http.ResponseWriter, req *http.Request) {
	w.Header().Set("Content-Type", "application/json; charset=utf-8")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	if err := enc.Encode(s.Snapshot()); err != nil {
		http.Error(w, fmt.Sprintf("status: %v", err), http.StatusInternalServerError)
	}
}
