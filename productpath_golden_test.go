package repro_test

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"hash"
	"os"
	"sort"
	"testing"

	"repro/internal/mcds"
	"repro/internal/mem"
	"repro/internal/profiling"
	"repro/internal/runcfg"
	"repro/internal/sim"
	"repro/internal/soc"
	"repro/internal/tmsg"
	"repro/internal/workload"
)

var updateGolden = flag.Bool("update-golden", false, "rewrite testdata/productpath_golden.json from the current code")

const productPathGolden = "testdata/productpath_golden.json"

// goldenHorizon is the simulated length of every pinned cell: long enough
// for dozens of rate windows per parameter, short enough for tier-1.
const goldenHorizon = 30_000

// goldenCell is one pinned product-path configuration.
type goldenCell struct {
	name      string
	run       runcfg.Run
	mix       string
	flowTrace bool
	// degrade overrides the run's degradation policy: the default one
	// never leaves factor 1 in a short cell.
	degrade *profiling.DegradePolicy
}

func goldenCells() []goldenCell {
	var cells []goldenCell
	for _, socName := range []string{"TC1797", "TC1767"} {
		for _, mix := range []string{"engine", "tableheavy", "canheavy", "dmaflow", "branchy"} {
			for _, faults := range []string{"clean", "flaky-cable", "everything"} {
				cells = append(cells, goldenCell{
					name: fmt.Sprintf("%s/%s/%s", socName, mix, faults),
					run: runcfg.Run{SoC: socName, Seed: 7, Cycles: goldenHorizon,
						Resolution: 1000, Faults: faults},
					mix: mix,
				})
			}
		}
	}
	return append(cells,
		goldenCell{name: "TC1797/engine/res100",
			run: runcfg.Run{SoC: "TC1797", Seed: 3, Cycles: goldenHorizon, Resolution: 100}, mix: "engine"},
		goldenCell{name: "TC1797/tableheavy/everything/res100/degrade",
			run: runcfg.Run{SoC: "TC1797", Seed: 5, Cycles: 4 * goldenHorizon, Resolution: 100,
				Faults: "everything", Degrade: true}, mix: "tableheavy",
			degrade: &profiling.DegradePolicy{Hi: 0.05, Lo: 0.045, Period: 64, MaxFactor: 1024}},
		goldenCell{name: "TC1767/branchy/flowtrace",
			run: runcfg.Run{SoC: "TC1767", Seed: 9, Cycles: goldenHorizon, Resolution: 500},
			mix: "branchy", flowTrace: true},
		goldenCell{name: "TC1797/dmaflow/flaky-cable/flowtrace",
			run: runcfg.Run{SoC: "TC1797", Seed: 11, Cycles: goldenHorizon, Resolution: 1000,
				Faults: "flaky-cable"}, mix: "dmaflow", flowTrace: true},
	)
}

// msgHasher folds every message the MCDS accepts into a digest: the exact
// emitted stream (kind, source, cycle, payload), independent of framing.
func msgHasher(h hash.Hash) func(*tmsg.Msg) {
	return func(m *tmsg.Msg) { fmt.Fprintf(h, "%+v\n", *m) }
}

// runGoldenCell runs one cell and digests its encoded RunReport, the
// emitted message stream and the emitter and counter statistics.
func runGoldenCell(t *testing.T, c goldenCell) string {
	t.Helper()
	cfg, err := c.run.SoCConfig()
	if err != nil {
		t.Fatal(err)
	}
	s := soc.New(cfg.WithED(), c.run.Seed)
	spec, ok := workload.Mix(c.mix, c.run.Seed)
	if !ok {
		t.Fatalf("unknown mix %q", c.mix)
	}
	app, err := workload.Build(s, spec)
	if err != nil {
		t.Fatal(err)
	}
	params := append(profiling.StandardParams(), profiling.PCPParams()...)
	pspec, err := c.run.SessionSpec(params)
	if err != nil {
		t.Fatal(err)
	}
	if c.degrade != nil {
		pspec.Degrade = c.degrade
	}
	sess := profiling.NewSession(s, pspec)
	h := sha256.New()
	sess.MCDS.OnEmit = msgHasher(h)
	if c.flowTrace {
		sess.CPUObs().FlowTrace = true
	}
	if err := sess.Run(context.Background(), app, c.run.Cycles); err != nil {
		t.Fatal(err)
	}
	prof, err := sess.Result(spec.Name)
	if err != nil {
		t.Fatal(err)
	}
	rep := sess.RunReport(prof, c.run.Seed)
	if err := rep.WriteJSON(h); err != nil {
		t.Fatal(err)
	}
	m := sess.MCDS
	fmt.Fprintf(h, "emitted=%d bytes=%d lost=%d\n", m.MsgsEmitted, m.BytesEmitted, m.MsgsLost)
	for _, p := range params {
		ctr := sess.Counter(p.Name)
		fmt.Fprintf(h, "%s windows=%d fires=%d res=%d\n", p.Name, ctr.Windows, ctr.Fires, ctr.Resolution)
	}
	if c.run.Degrade && (sess.Degrader == nil || sess.Degrader.Widenings == 0 || sess.Degrader.Restores == 0) {
		t.Errorf("%s: degrader did not both widen and restore; the cell does not exercise resolution changes", c.name)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// runGoldenCascade is the E4 shape on the product SoC: a coarse IPC
// threshold counter arms and disarms a fine emitting counter, a watchdog
// guards a heartbeat store seen by an address comparator, a state machine
// disarms the fine counter on the first cycle, and the watchdog's first
// firing switches flow trace on.
func runGoldenCascade(t *testing.T) string {
	t.Helper()
	s := soc.New(soc.TC1797().WithED(), 13)
	spec, _ := workload.Mix("engine", 13)
	app, err := workload.Build(s, spec)
	if err != nil {
		t.Fatal(err)
	}
	m := mcds.New(s.EMEM)
	h := sha256.New()
	m.OnEmit = msgHasher(h)
	core := m.AddCore(s.CPU, 0)
	flash := m.AddBus(s.Flash.Counters(), 5)

	below := m.AllocSignal("ipc-low")
	above := m.AllocSignal("ipc-ok")
	coarse := mcds.NewRateCounter("ipc-coarse", 1,
		mcds.Tap{Obs: core, Event: sim.EvInstrExecuted},
		mcds.Tap{Obs: core, Event: sim.EvCycle}, 400)
	coarse.Emit = false
	coarse.ThreshNum, coarse.ThreshDen = 7, 10
	coarse.Below, coarse.Above = below, above
	coarse.TrackExtremes = true
	m.AddCounter(coarse)
	fine := m.AddCounter(mcds.NewRateCounter("ipc-fine", 2,
		mcds.Tap{Obs: core, Event: sim.EvInstrExecuted},
		mcds.Tap{Obs: core, Event: sim.EvCycle}, 50))
	misses := m.AddCounter(mcds.NewRateCounter("flash-reads", 3,
		mcds.Tap{Obs: flash, Event: sim.EvDFlashRead},
		mcds.Tap{Obs: core, Event: sim.EvInstrExecuted}, 300))
	misses.TrackExtremes = true

	boot := m.AddStateMachine("boot", []string{"boot", "run"})
	boot.AddTransition(mcds.Transition{From: 0, When: mcds.On(boot.StateSignal(0)), To: 1,
		Do: []mcds.Action{{Kind: mcds.ActDisableCounter, Counter: fine}}})
	m.AddRule(&mcds.TriggerRule{Name: "arm", When: mcds.On(below),
		Do: []mcds.Action{{Kind: mcds.ActEnableCounter, Counter: fine}}})
	m.AddRule(&mcds.TriggerRule{Name: "disarm", When: mcds.On(above),
		Do: []mcds.Action{{Kind: mcds.ActDisableCounter, Counter: fine}}})

	seen := m.AllocSignal("store-seen")
	m.AddComparator(&mcds.Comparator{Name: "stores", Core: core, Kind: mcds.CompAddr,
		Lo: mem.DSPRBase, Hi: mem.DSPRBase + 0x100, Dir: mcds.RWWrite, Signal: seen})
	fired := m.AllocSignal("quiet")
	wd := m.AddCounter(mcds.NewWatchdog("quiet", 4,
		mcds.Tap{Obs: core, Event: sim.EvDScratchAccess}, 40, fired))
	wd.EmitTriggerOnFire, wd.TriggerID = true, 9
	m.AddRule(&mcds.TriggerRule{Name: "flow-on-quiet", When: mcds.On(fired), Once: true,
		Do: []mcds.Action{{Kind: mcds.ActFlowTraceOn, Core: core}}})

	rf := m.RegFile(mem.MCDSRegBase)
	s.DLMB.Map(mem.MCDSRegBase, rf.Size(), rf)
	s.Clock.Attach("mcds", m)
	app.RunFor(goldenHorizon)
	s.Clock.Step()

	fmt.Fprintf(h, "emitted=%d bytes=%d lost=%d level=%d\n", m.MsgsEmitted, m.BytesEmitted, m.MsgsLost, s.EMEM.Level())
	for _, c := range []*mcds.Counter{coarse, fine, misses, wd} {
		fmt.Fprintf(h, "%s windows=%d fires=%d max=%d/%d min=%d/%d\n", c.Name, c.Windows, c.Fires,
			c.MaxCount, c.MaxBasis, c.MinCount, c.MinBasis)
	}
	fmt.Fprintf(h, "boot=%d moves=%d\n", boot.State(), boot.Moves)
	if fine.Windows == 0 || wd.Fires == 0 || coarse.Fires == 0 {
		t.Errorf("cascade did not engage: fine windows %d, watchdog fires %d, coarse below %d",
			fine.Windows, wd.Fires, coarse.Fires)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// TestProductPathGolden pins the bytes the product path produces: RunReports
// and emitted message streams across SoC × mix × fault scenario, plus
// resolution 100, graceful degradation, flow trace and a trigger cascade.
// Host-speed work on the simulator must leave every digest unchanged;
// regenerate with -update-golden only for an intended output change.
func TestProductPathGolden(t *testing.T) {
	got := map[string]string{}
	for _, c := range goldenCells() {
		got[c.name] = runGoldenCell(t, c)
	}
	got["TC1797/engine/cascade"] = runGoldenCascade(t)

	if *updateGolden {
		b, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(productPathGolden, append(b, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	raw, err := os.ReadFile(productPathGolden)
	if err != nil {
		t.Fatalf("%v (regenerate with -update-golden)", err)
	}
	var want map[string]string
	if err := json.NewDecoder(bytes.NewReader(raw)).Decode(&want); err != nil {
		t.Fatal(err)
	}
	names := make([]string, 0, len(got))
	for n := range got {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		if want[n] != got[n] {
			t.Errorf("%s: digest %s, golden %s", n, got[n], want[n])
		}
	}
	if len(want) != len(got) {
		t.Errorf("golden has %d cells, test ran %d", len(want), len(got))
	}
}
