package campaign_test

import (
	"context"
	"errors"
	"fmt"
	"io"
	"reflect"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/campaign"
	"repro/internal/campaign/shard"
	"repro/internal/obs"
	"repro/internal/profiling"
)

// viewsMatrix is 8 cells at a short horizon.
func viewsMatrix() campaign.Matrix {
	return campaign.Matrix{
		Name:        "views",
		Seed:        11,
		Seeds:       2,
		SoCs:        []string{"TC1797", "TC1767"},
		Mixes:       []string{"lean"},
		Faults:      []string{"clean", "everything"},
		Resolutions: []uint64{500},
		Cycles:      20_000,
	}
}

// viewsReport is a valid run report that costs no simulation.
func viewsReport(c campaign.Cell) *profiling.RunReport {
	return &profiling.RunReport{
		Schema: profiling.ReportSchemaVersion,
		App:    "views", SoC: c.Run.SoC, Seed: c.Run.Seed,
		Cycles: c.Run.Cycles + uint64(c.Index), Resolution: c.Run.Resolution,
		Confidence: 1,
		Params: map[string]profiling.ParamStats{
			"ipc": {Mean: float64(c.Index), Min: 0, Max: 10, Windows: 8, Confidence: 1},
		},
	}
}

// The campaign_* names each kind of campaign publishes, as the
// separately kept counters and gauges published them before the ledger
// became the one record.
var (
	poolNames = []string{
		"campaign_cells_total", "campaign_panics", "campaign_retries",
		"campaign_sessions_done", "campaign_sessions_failed",
		"campaign_sessions_per_sec", "campaign_sim_cycles_per_sec",
		"campaign_timeouts", "campaign_worker00_util", "campaign_worker01_util",
	}
	journaledNames = []string{
		"campaign_cells_total", "campaign_panics", "campaign_retries",
		"campaign_sessions_done", "campaign_sessions_failed",
		"campaign_sessions_per_sec", "campaign_sim_cycles_per_sec",
		"campaign_timeouts", "campaign_worker00_util",
	}
	resumedNames = []string{
		"campaign_cells_total", "campaign_panics", "campaign_resume_skips",
		"campaign_retries", "campaign_sessions_done", "campaign_sessions_failed",
		"campaign_sessions_per_sec", "campaign_sim_cycles_per_sec",
		"campaign_timeouts", "campaign_worker00_util",
	}
	shardNames = []string{
		"campaign_cells_total", "campaign_sessions_done", "campaign_sessions_failed",
		"campaign_shard00_alive", "campaign_shard00_cells_done",
		"campaign_shard00_hb_age_sec", "campaign_shard00_restarts",
		"campaign_shard01_alive", "campaign_shard01_cells_done",
		"campaign_shard01_hb_age_sec", "campaign_shard01_restarts",
		"campaign_shard_crashes", "campaign_shard_dup_cells", "campaign_shard_hangs",
		"campaign_shard_orphan_cells", "campaign_shard_restarts",
		"campaign_shard_torn_records",
	}
)

// checkViews asserts that /status, the Result and the registry read
// one record, and that the registry publishes exactly names.
func checkViews(t *testing.T, res *campaign.Result, status *campaign.Status, reg *obs.Registry, names []string) {
	t.Helper()
	snap := status.Snapshot()
	ms := reg.Snapshot()
	var got []string
	published := map[string]bool{}
	for _, c := range ms.Counters {
		published[c.Name] = true
	}
	for _, g := range ms.Gauges {
		published[g.Name] = true
	}
	for name := range published {
		if strings.HasPrefix(name, "campaign_") {
			got = append(got, name)
		}
	}
	sort.Strings(got)
	if !reflect.DeepEqual(got, names) {
		t.Errorf("campaign_* names:\n got %v\nwant %v", got, names)
	}
	counter := func(name string) int {
		v, ok := ms.Counter(name)
		if !ok {
			t.Errorf("counter %s not published", name)
		}
		return int(v)
	}
	gauge := func(name string) float64 {
		v, ok := ms.Gauge(name)
		if !ok {
			t.Errorf("gauge %s not published", name)
		}
		return v
	}
	want := func(name string) bool { return published[name] }

	// /status against Result.
	if snap.Campaign != "views" || snap.Cells != res.Cells || snap.Done+snap.Resumed != res.Completed ||
		snap.Failed != res.Failed || snap.Resumed != res.Resumed || snap.SimCycles != res.SimCycles {
		t.Errorf("/status %+v disagrees with result %+v", snap, res)
	}
	if !res.Canceled && snap.Pending+snap.Running+snap.Retrying != 0 {
		t.Errorf("/status has unsettled cells after a full campaign: %+v", snap)
	}
	restarts, shardDone := 0, 0
	for _, sh := range snap.Shards {
		restarts += sh.Restarts
		shardDone += sh.Done
		prefix := fmt.Sprintf("campaign_shard%02d_", sh.Shard)
		alive := 0.0
		if sh.Alive {
			alive = 1
		}
		if gauge(prefix+"alive") != alive || gauge(prefix+"restarts") != float64(sh.Restarts) ||
			gauge(prefix+"cells_done") != float64(sh.Done) || gauge(prefix+"hb_age_sec") != sh.HBAgeSec {
			t.Errorf("shard %d: /status %+v disagrees with its gauges", sh.Shard, sh)
		}
	}
	if restarts != res.Restarts {
		t.Errorf("/status shard restarts sum to %d, result has %d", restarts, res.Restarts)
	}
	if len(snap.Shards) > 0 && shardDone != res.Completed-res.Resumed {
		t.Errorf("/status shards completed %d cells, result executed %d", shardDone, res.Completed-res.Resumed)
	}

	// The registry against Result.
	if counter("campaign_cells_total") != res.Cells || counter("campaign_sessions_done") != res.Completed-res.Resumed ||
		counter("campaign_sessions_failed") != res.Failed {
		t.Errorf("cell counters disagree with result %+v", res)
	}
	if want("campaign_resume_skips") && counter("campaign_resume_skips") != res.Resumed {
		t.Errorf("campaign_resume_skips = %d, result resumed %d", counter("campaign_resume_skips"), res.Resumed)
	}
	if want("campaign_retries") {
		panics := 0
		for _, ce := range res.Errors {
			if ce.Class == campaign.ClassPanic {
				panics++
			}
		}
		if counter("campaign_retries") != res.Retried || counter("campaign_panics") != panics {
			t.Errorf("campaign_retries %d, campaign_panics %d; result retried %d with %d panics",
				counter("campaign_retries"), counter("campaign_panics"), res.Retried, panics)
		}
		for _, name := range []string{"campaign_sessions_per_sec", "campaign_sim_cycles_per_sec"} {
			if gauge(name) < 0 {
				t.Errorf("%s = %v", name, gauge(name))
			}
		}
	}
	if want("campaign_shard_restarts") && (counter("campaign_shard_restarts") != res.Restarts ||
		counter("campaign_shard_torn_records") != res.Torn || counter("campaign_shard_dup_cells") != res.Dup) {
		t.Errorf("shard counters disagree with result: restarts %d torn %d dup %d",
			res.Restarts, res.Torn, res.Dup)
	}
}

// TestCampaignViewsAgree runs three campaigns — in-process with a
// panic, a watchdog timeout and a retried transient failure; journaled,
// interrupted and resumed; two shards under chaos with a respawn that
// fails to start — and checks after each that /status, Result and the
// campaign_* metrics agree, and that the metric names are the ones each
// kind of campaign has always published.
func TestCampaignViewsAgree(t *testing.T) {
	ctx := context.Background()
	t.Run("in-process", func(t *testing.T) {
		reg, status := obs.New(), campaign.NewStatus(nil)
		var flaked atomic.Bool
		opt := campaign.Options{Workers: 2, Obs: reg, Status: status, CellTimeout: 200 * time.Millisecond, Retries: 1}
		campaign.SetExec(&opt, func(ctx context.Context, c campaign.Cell) (*profiling.RunReport, error) {
			switch {
			case c.Index == 3:
				panic("injected")
			case c.Index == 5:
				<-ctx.Done() // wedged: only the watchdog gets it back
				return nil, ctx.Err()
			case c.Index == 2 && !flaked.Swap(true):
				return nil, campaign.Transient(errors.New("flaky"))
			}
			return viewsReport(c), nil
		}, time.Millisecond)
		res, err := campaign.Run(ctx, viewsMatrix(), opt)
		if err != nil {
			t.Fatal(err)
		}
		if res.Completed != 6 || res.Failed != 2 || res.Retried != 2 {
			t.Fatalf("completed %d, failed %d, retried %d; want 6, 2, 2", res.Completed, res.Failed, res.Retried)
		}
		if v := reg.Counter("campaign_timeouts").Value(); v != 2 {
			t.Errorf("campaign_timeouts = %d, want 2", v)
		}
		checkViews(t, res, status, reg, poolNames)
	})

	t.Run("interrupted-and-resumed", func(t *testing.T) {
		dir := t.TempDir()
		exec := func(_ context.Context, c campaign.Cell) (*profiling.RunReport, error) { return viewsReport(c), nil }
		cctx, cancel := context.WithCancel(ctx)
		defer cancel()
		var landed atomic.Int32
		reg, status := obs.New(), campaign.NewStatus(nil)
		opt := campaign.Options{Workers: 1, Obs: reg, Status: status, JournalDir: dir,
			OnReport: func(campaign.Cell, *profiling.RunReport) {
				if landed.Add(1) == 3 {
					cancel()
				}
			}}
		campaign.SetExec(&opt, exec, time.Millisecond)
		res, err := campaign.Run(cctx, viewsMatrix(), opt)
		if err != nil {
			t.Fatal(err)
		}
		if !res.Canceled || res.Completed == res.Cells {
			t.Fatalf("interrupted run: canceled %v, completed %d of %d", res.Canceled, res.Completed, res.Cells)
		}
		checkViews(t, res, status, reg, journaledNames)

		reg, status = obs.New(), campaign.NewStatus(nil)
		opt = campaign.Options{Workers: 1, Obs: reg, Status: status, JournalDir: dir, Resume: true}
		campaign.SetExec(&opt, exec, time.Millisecond)
		res2, err := campaign.Run(ctx, viewsMatrix(), opt)
		if err != nil {
			t.Fatal(err)
		}
		if res2.Resumed != res.Completed || res2.Completed != res2.Cells {
			t.Fatalf("resumed %d (journaled %d), completed %d of %d", res2.Resumed, res.Completed, res2.Completed, res2.Cells)
		}
		checkViews(t, res2, status, reg, resumedNames)
	})

	t.Run("two-shards-under-chaos", func(t *testing.T) {
		if testing.Short() {
			t.Skip("runs shard workers with respawn backoff")
		}
		reg, status := obs.New(), campaign.NewStatus(obs.NewEventLog(1024))
		chaos := &shard.ChaosTransport{
			Inner: workerTransport{},
			Seed:  17,
			Plan:  shard.ChaosPlan{CutProb: 0.9, ReplayProb: 0.2, MaxFaults: 2},
			Logf:  t.Logf,
		}
		res, err := shard.Run(ctx, viewsMatrix(), shard.Options{
			Campaign:  campaign.Options{Workers: 1, Obs: reg, Status: status},
			Shards:    2,
			Transport: &refusedRespawns{inner: chaos},
			Retries:   2,
			Logf:      t.Logf,
		})
		if err != nil {
			t.Fatal(err)
		}
		// Shard 1 crashed, then both respawns failed to start, so its
		// cells failed; shard 0 absorbs at most two chaos faults within
		// its budget and completes.
		if res.Completed != res.Cells/2 || res.Failed != res.Cells/2 {
			t.Fatalf("completed %d, failed %d of %d: %v", res.Completed, res.Failed, res.Cells, res.Errors)
		}
		if chaos.Faults() == 0 {
			t.Error("chaos injected no faults")
		}
		t.Logf("chaos: %d faults, %d respawns, %d torn, %d dup records", chaos.Faults(), res.Restarts, res.Torn, res.Dup)
		snap := status.Snapshot()
		if len(snap.Shards) != 2 || snap.Shards[1].Restarts != 2 {
			t.Fatalf("/status shards = %+v, want shard 1 at 2 restarts", snap.Shards)
		}
		if v := reg.Gauge("campaign_shard01_restarts").Value(); v != 2 {
			t.Errorf("campaign_shard01_restarts = %v after respawns that failed to start, /status has 2", v)
		}
		checkViews(t, res, status, reg, shardNames)
	})
}

// workerTransport runs each shard worker in this process, over a pipe.
type workerTransport struct{}

func (workerTransport) Start(spec shard.Spec) (shard.Conn, error) {
	ctx, cancel := context.WithCancel(context.Background())
	pr, pw := io.Pipe()
	c := &pipeConn{pr: pr, cancel: cancel, done: make(chan struct{})}
	go func() {
		defer close(c.done)
		c.code = shard.RunWorker(ctx, spec, pw, io.Discard)
		pw.Close()
	}()
	return c, nil
}

// pipeConn is one in-process worker. Kill cancels its cells and breaks
// its pipe, so a worker blocked in a write returns.
type pipeConn struct {
	pr     *io.PipeReader
	cancel context.CancelFunc
	done   chan struct{}
	once   sync.Once
	killed atomic.Bool
	code   int // set before done closes
}

func (c *pipeConn) Output() io.Reader { return c.pr }
func (c *pipeConn) Terminate()        { c.cancel() }
func (c *pipeConn) Pid() int          { return 0 }

func (c *pipeConn) Kill() {
	c.once.Do(func() {
		c.killed.Store(true)
		c.cancel()
		c.pr.CloseWithError(errors.New("killed"))
	})
}

func (c *pipeConn) Wait() error {
	<-c.done
	switch {
	case c.killed.Load():
		return errors.New("killed")
	case c.code != 0:
		return fmt.Errorf("exit status %d", c.code)
	}
	return nil
}

// refusedRespawns crashes shard 1's first worker before it says hello
// and refuses to start any later one; shard 0's spawns go to inner.
type refusedRespawns struct {
	inner  shard.Transport
	spawns atomic.Int32
}

func (t *refusedRespawns) Start(spec shard.Spec) (shard.Conn, error) {
	if spec.Shard != 1 {
		return t.inner.Start(spec)
	}
	if t.spawns.Add(1) == 1 {
		return crashedConn{}, nil
	}
	return nil, errors.New("spawn refused")
}

// crashedConn is a worker that exited nonzero without a word.
type crashedConn struct{}

func (crashedConn) Output() io.Reader { return strings.NewReader("") }
func (crashedConn) Terminate()        {}
func (crashedConn) Kill()             {}
func (crashedConn) Wait() error       { return errors.New("exit status 3") }
func (crashedConn) Pid() int          { return 0 }
