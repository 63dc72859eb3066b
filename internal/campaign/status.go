// Status: the live campaign scoreboard behind the /status endpoint.
// The obs registry answers "how much work has happened"; Status answers
// the operator's actual questions mid-campaign: which cells are in
// which state, which shards are alive and how stale their heartbeats
// are, what the throughput is and when the campaign will finish. Every
// transition also lands in the flight-recorder EventLog (when one is
// attached), so /status is the current frame and /events is the film.
//
// Like every telemetry surface in this codebase, a nil *Status is
// disabled: all methods are no-ops, so the campaign and shard
// supervisors instrument unconditionally and whether it costs anything
// is decided once, at wiring time. Status never touches reports or the
// aggregate — it observes the campaign, it cannot perturb its
// byte-identical determinism contract.
package campaign

import (
	"encoding/json"
	"fmt"
	"net/http"
	"sync"
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

// Status tracks live campaign state for the /status endpoint.
type Status struct {
	mu     sync.Mutex
	start  time.Time
	name   string
	cells  []cellStat
	shards map[int]*shardStat
	cycles uint64
	events *obs.EventLog
}

type cellStat struct {
	ID       string
	State    CellState
	Attempts int
	Shard    int // -1: in-process tier
}

type shardStat struct {
	PID      int
	Alive    bool
	Restarts int
	Done     int
	Silent   time.Duration // heartbeat periods without a line, as time
	LastNote string        // most recent supervision verdict (crash/hang/...)
}

// NewStatus returns an enabled tracker; events may be nil (state only,
// no flight recorder).
func NewStatus(events *obs.EventLog) *Status {
	return &Status{start: time.Now(), shards: map[int]*shardStat{}, events: events}
}

// Begin registers the expanded matrix: every cell starts pending. Call
// once, before execution; resumed cells are marked via CellResumedFromJournal.
func (s *Status) Begin(name string, cells []Cell) {
	if s == nil {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.start = time.Now()
	s.name = name
	s.cells = make([]cellStat, len(cells))
	for i, c := range cells {
		s.cells[i] = cellStat{ID: c.ID, State: CellPending, Shard: -1}
	}
	s.events.Appendf("campaign_begin", -1, "", "%q: %d cells", name, len(cells))
}

// valid reports whether idx addresses a registered cell.
func (s *Status) valid(idx int) bool { return idx >= 0 && idx < len(s.cells) }

// CellStarted marks one execution attempt of a cell.
func (s *Status) CellStarted(idx, attempt int) {
	if s == nil {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if !s.valid(idx) {
		return
	}
	s.cells[idx].State = CellRunning
	s.cells[idx].Attempts = attempt
	if attempt == 1 {
		s.events.Append("cell_start", s.cells[idx].Shard, s.cells[idx].ID, "")
	} else {
		s.events.Appendf("cell_start", s.cells[idx].Shard, s.cells[idx].ID, "attempt %d", attempt)
	}
}

// CellRetryScheduled marks a transient failure awaiting its backoff.
func (s *Status) CellRetryScheduled(idx, attempt int, err error) {
	if s == nil {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if !s.valid(idx) {
		return
	}
	s.cells[idx].State = CellRetrying
	s.cells[idx].Attempts = attempt
	s.events.Appendf("cell_retry", s.cells[idx].Shard, s.cells[idx].ID, "attempt %d: %v", attempt, err)
}

// CellCompleted marks a cell done and folds its simulated cycles into
// the throughput/ETA math.
func (s *Status) CellCompleted(idx int, simCycles uint64) {
	if s == nil {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if !s.valid(idx) {
		return
	}
	s.cells[idx].State = CellDone
	s.cycles += simCycles
	if sh := s.shards[s.cells[idx].Shard]; sh != nil {
		sh.Done++
	}
	s.events.Append("cell_done", s.cells[idx].Shard, s.cells[idx].ID, "")
}

// CellFailedTerminally marks a cell permanently failed.
func (s *Status) CellFailedTerminally(idx int, class Class, err error) {
	if s == nil {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if !s.valid(idx) {
		return
	}
	s.cells[idx].State = CellFailed
	s.events.Appendf("cell_failed", s.cells[idx].Shard, s.cells[idx].ID, "[%s] %v", class, err)
}

// CellResumedFromJournal marks a cell satisfied by a journaled report.
func (s *Status) CellResumedFromJournal(idx int, simCycles uint64) {
	if s == nil {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if !s.valid(idx) {
		return
	}
	s.cells[idx].State = CellResumed
	s.cycles += simCycles
	s.events.Append("cell_resumed", -1, s.cells[idx].ID, "")
}

// CellsAssigned records that a live shard worker now owns these cells:
// they are attributed to the shard and the still-pending ones become
// running. The sharded supervisor calls it at every (re)spawn; the
// state machine is therefore shard-granular for worker cells — the
// supervisor only learns of per-cell completion when the record lands.
func (s *Status) CellsAssigned(shard int, indices []int) {
	if s == nil {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, idx := range indices {
		if !s.valid(idx) {
			continue
		}
		s.cells[idx].Shard = shard
		if s.cells[idx].State == CellPending {
			s.cells[idx].State = CellRunning
		}
	}
}

// shard returns (creating on demand) the tracked state of one shard.
// Callers hold s.mu.
func (s *Status) shard(si int) *shardStat {
	sh := s.shards[si]
	if sh == nil {
		sh = &shardStat{}
		s.shards[si] = sh
	}
	return sh
}

// ShardSpawned records one worker spawn (attempt 0 is the initial
// spawn; >0 are respawns).
func (s *Status) ShardSpawned(si, pid, attempt, cells int) {
	if s == nil {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	sh := s.shard(si)
	sh.PID = pid
	sh.Alive = true
	sh.Restarts = attempt
	sh.Silent = 0
	kind := "shard_spawn"
	if attempt > 0 {
		kind = "shard_respawn"
	}
	s.events.Appendf(kind, si, "", "pid %d, %d cells", pid, cells)
}

// ShardSilent records how long a live shard has sent nothing, as the
// supervisor's hang count reads it: silent heartbeat periods times the
// period. The supervisor sets it once per heartbeat tick.
func (s *Status) ShardSilent(si int, age time.Duration) {
	if s == nil {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.shard(si).Silent = age
}

// ShardDown records a worker exit with the supervisor's verdict
// ("clean", "crash: ...", "hang: ..."). Cells the dead shard was
// running revert to pending — they are not being executed by anyone
// until a respawn claims them again.
func (s *Status) ShardDown(si int, verdict string) {
	if s == nil {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	sh := s.shard(si)
	sh.Alive = false
	sh.LastNote = verdict
	for i := range s.cells {
		if s.cells[i].Shard == si && s.cells[i].State == CellRunning {
			s.cells[i].State = CellPending
		}
	}
	s.events.Append("shard_down", si, "", verdict)
}

// ShardAnomaly counts a supervision anomaly that is not a lifecycle
// transition: torn/dup/orphan records, hang detection.
func (s *Status) ShardAnomaly(si int, kind, detail string) {
	if s == nil {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if sh := s.shards[si]; sh != nil {
		sh.LastNote = kind
	}
	s.events.Append(kind, si, "", detail)
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
	// CellsPerSec is completion throughput (executed + resumed) over
	// elapsed time; ETASec extrapolates it over the remaining cells
	// (-1 when no throughput yet).
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

// Snapshot assembles the current scoreboard. Zero-valued on a nil
// tracker.
func (s *Status) Snapshot() StatusSnap {
	if s == nil {
		return StatusSnap{CellStates: map[string]string{}}
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	snap := StatusSnap{
		Campaign:   s.name,
		Cells:      len(s.cells),
		SimCycles:  s.cycles,
		ElapsedSec: time.Since(s.start).Seconds(),
		CellStates: make(map[string]string, len(s.cells)),
		ETASec:     -1,
	}
	for _, c := range s.cells {
		snap.CellStates[c.ID] = string(c.State)
		switch c.State {
		case CellPending:
			snap.Pending++
		case CellRunning:
			snap.Running++
		case CellRetrying:
			snap.Retrying++
		case CellDone:
			snap.Done++
		case CellFailed:
			snap.Failed++
		case CellResumed:
			snap.Resumed++
		}
	}
	if completed := snap.Done + snap.Resumed; completed > 0 && snap.ElapsedSec > 0 {
		snap.CellsPerSec = float64(completed) / snap.ElapsedSec
		remaining := snap.Pending + snap.Running + snap.Retrying
		snap.ETASec = float64(remaining) / snap.CellsPerSec
	}
	for si, sh := range s.shards {
		snap.Shards = append(snap.Shards, ShardSnap{
			Shard:    si,
			PID:      sh.PID,
			Alive:    sh.Alive,
			Restarts: sh.Restarts,
			Done:     sh.Done,
			HBAgeSec: sh.Silent.Seconds(),
			LastNote: sh.LastNote,
		})
	}
	// Deterministic shard ordering for stable output.
	for i := 1; i < len(snap.Shards); i++ {
		for j := i; j > 0 && snap.Shards[j].Shard < snap.Shards[j-1].Shard; j-- {
			snap.Shards[j], snap.Shards[j-1] = snap.Shards[j-1], snap.Shards[j]
		}
	}
	return snap
}

// ServeHTTP implements the /status endpoint: the snapshot as indented
// JSON. Safe on a nil tracker (serves the zero scoreboard).
func (s *Status) ServeHTTP(w http.ResponseWriter, req *http.Request) {
	w.Header().Set("Content-Type", "application/json; charset=utf-8")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	if err := enc.Encode(s.Snapshot()); err != nil {
		http.Error(w, fmt.Sprintf("status: %v", err), http.StatusInternalServerError)
	}
}
