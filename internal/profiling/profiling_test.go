package profiling

import (
	"context"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/fault"
	"repro/internal/isa"
	"repro/internal/mem"
	"repro/internal/sim"
	"repro/internal/soc"
	"repro/internal/tmsg"
	"repro/internal/workload"
)

// mustRun drives the measurement phase through the context-aware session
// API, failing the test on unexpected cancellation.
func mustRun(t testing.TB, sess *Session, app Runner, cycles uint64) {
	t.Helper()
	if err := sess.Run(context.Background(), app, cycles); err != nil {
		t.Fatal(err)
	}
}

func buildApp(t *testing.T, cfg soc.Config, spec workload.Spec) (*soc.SoC, *workload.App) {
	t.Helper()
	s := soc.New(cfg, spec.Seed)
	app, err := workload.Build(s, spec)
	if err != nil {
		t.Fatal(err)
	}
	return s, app
}

func stdSpec() workload.Spec {
	return workload.Spec{
		Name: "app", Seed: 3, CodeKB: 16, TableKB: 16, FilterTaps: 12,
		DiagBranches: 10, ADCPeriod: 2500, TimerPeriod: 9000, CANMeanGap: 5000,
	}
}

func TestStandardProfileSane(t *testing.T) {
	s, app := buildApp(t, soc.TC1797().WithED(), stdSpec())
	sess := NewSession(s, Spec{Resolution: 500, Params: StandardParams()})
	mustRun(t, sess, app, 500_000)
	p, err := sess.Result("app")
	if err != nil {
		t.Fatal(err)
	}
	if p.MsgsLost != 0 {
		t.Errorf("lost %d messages with 384K trace buffer", p.MsgsLost)
	}
	ipc := p.Rate("ipc")
	if ipc <= 0 || ipc > 3 {
		t.Errorf("ipc = %v", ipc)
	}
	// Hit rate sanity: misses <= accesses.
	if p.Rate("icache_miss") > p.Rate("icache_access") {
		t.Error("more misses than accesses")
	}
	// All standard parameters produced samples.
	for _, name := range p.Names() {
		if len(p.Series[name].Samples) == 0 {
			t.Errorf("parameter %s has no samples", name)
		}
	}
	// Stall fractions are fractions of cycles.
	if r := p.Rate("stall_any"); r < 0 || r > 1 {
		t.Errorf("stall_any = %v", r)
	}
	// Dynamic behaviour: IPC varies over time (interrupt-driven system).
	se := p.Series["ipc"]
	if se.Min() == se.Max() {
		t.Error("IPC timeline is flat — no dynamics visible")
	}
}

// TestWorkedExampleDataFlashRate reproduces the paper's Section 5 example:
// "6 CPU data reads from the flash within the last 100 executed
// instructions are identical to an CPU data flash access rate of 6%."
// The program executes exactly 100 instructions per loop iteration, 6 of
// which are uncached data loads from flash.
func TestWorkedExampleDataFlashRate(t *testing.T) {
	cfg := soc.TC1797().WithED()
	cfg.DCache = nil // every flash data read reaches the flash
	s := soc.New(cfg, 1)

	a := isa.NewAsm(mem.FlashBase)
	a.Movw(1, mem.FlashBase+0x10000) // table pointer
	a.Movw(9, 400)                   // iterations
	a.J("body")
	a.Label("body")
	// 6 data flash reads.
	for i := int32(0); i < 6; i++ {
		a.Ldw(2, 1, i*4)
	}
	// Filler up to exactly 100 instructions per iteration:
	// 6 loads + 92 ALU + LOOP + (amortized) = we count precisely below.
	for i := 0; i < 93; i++ {
		a.Addi(3, 3, 1)
	}
	a.Loop(9, "body") // 6 + 93 + 1 = 100 instructions per iteration
	a.Halt()
	p, err := a.Assemble()
	if err != nil {
		t.Fatal(err)
	}
	s.LoadProgram(p)
	s.ResetCPU(p.Base)

	sess := NewSession(s, Spec{Resolution: 100, Params: []Param{
		{Name: "dflash_read", Obs: ObsCPU, Event: sim.EvDFlashRead},
	}})

	if _, ok := s.RunUntilHalt(10_000_000); !ok {
		t.Fatal("did not halt")
	}
	s.Clock.Step()
	prof, err := sess.Result("worked-example")
	if err != nil {
		t.Fatal(err)
	}
	se := prof.Series["dflash_read"]
	if len(se.Samples) < 100 {
		t.Fatalf("only %d windows", len(se.Samples))
	}
	// Steady state: every window of 100 instructions contains exactly 6
	// data flash reads — a 6% rate, as the paper computes.
	exact := 0
	for _, smp := range se.Samples[2 : len(se.Samples)-2] {
		if smp.Basis == 100 && smp.Count == 6 {
			exact++
		}
	}
	steady := se.Samples[2 : len(se.Samples)-2]
	if exact < len(steady)*9/10 {
		t.Errorf("only %d/%d windows show the exact 6/100 rate", exact, len(steady))
	}
	if r := se.Mean(); r < 0.055 || r > 0.065 {
		t.Errorf("aggregate rate = %.4f, want about 0.06", r)
	}
}

func TestHitRatePctConvention(t *testing.T) {
	// "4 instruction cache misses during the last 100 executed
	// instructions respond to an instruction cache hit rate of 96%":
	// the paper's convention derives the hit percentage directly from the
	// miss-per-instruction rate.
	s := Sample{Basis: 100, Count: 4}
	if got := HitRatePct(s); got != 96 {
		t.Errorf("HitRatePct = %v, want 96", got)
	}
	if got := HitRatePct(Sample{Basis: 0, Count: 0}); got != 100 {
		t.Errorf("empty window = %v, want 100", got)
	}
}

func TestDAPDrainDuringRun(t *testing.T) {
	s, app := buildApp(t, soc.TC1797().WithED(), stdSpec())
	sess := NewSession(s, Spec{Resolution: 1000, Params: StandardParams(), DAP: true})
	mustRun(t, sess, app, 400_000)
	if sess.DAP.TotalDrained == 0 {
		t.Fatal("DAP drained nothing during the run")
	}
	p, err := sess.Result("app")
	if err != nil {
		t.Fatal(err)
	}
	if len(p.Series["ipc"].Samples) == 0 {
		t.Error("no samples through the DAP path")
	}
}

func TestHotWindowDetection(t *testing.T) {
	s, app := buildApp(t, soc.TC1797().WithED(), stdSpec())
	sess := NewSession(s, Spec{Resolution: 200, Params: StandardParams()})
	mustRun(t, sess, app, 400_000)
	p, err := sess.Result("app")
	if err != nil {
		t.Fatal(err)
	}
	all := len(p.Series["ipc"].Samples)
	hot := len(p.HotWindows("ipc", p.Rate("ipc")))
	if hot == 0 || hot == all {
		t.Errorf("hot windows = %d of %d — threshold should split the timeline", hot, all)
	}
	// Every window HotWindows leaves out is at or above the threshold.
	above := 0
	for _, s := range p.Series["ipc"].Samples {
		if s.Rate() >= p.Rate("ipc") {
			above++
		}
	}
	if above+hot != all {
		t.Errorf("partition broken: %d + %d != %d", above, hot, all)
	}
}

func TestFunctionProfileFindsHotFunctions(t *testing.T) {
	s, app := buildApp(t, soc.TC1797().WithED(), stdSpec())
	sess := NewSession(s, Spec{Resolution: 1000, Params: StandardParams()})
	sess.CPUObs().FlowTrace = true
	mustRun(t, sess, app, 300_000)
	raw := s.EMEM.Drain(s.EMEM.Level())
	var dec tmsg.Decoder
	msgs, _, err := dec.DecodeAll(raw)
	if err != nil {
		t.Fatal(err)
	}
	costs := FunctionProfile(msgs, 0, app.Prog)
	if len(costs) < 4 {
		t.Fatalf("only %d functions attributed", len(costs))
	}
	total := uint64(0)
	byName := map[string]uint64{}
	for _, fc := range costs {
		total += fc.Instr
		byName[fc.Name] += fc.Instr
	}
	for _, want := range []string{"task_filter", "task_lookup", "task_diag", "isr_adc"} {
		if byName[want] == 0 {
			t.Errorf("function %s got no cost", want)
		}
	}
	if costs[0].Instr < total/20 {
		t.Error("hottest function suspiciously cold")
	}
}

func TestSessionRunCancellation(t *testing.T) {
	s, app := buildApp(t, soc.TC1797().WithED(), stdSpec())
	sess := NewSession(s, Spec{Resolution: 500, Params: StandardParams()})

	// Pre-canceled context: no cycle may execute.
	canceled, cancel := context.WithCancel(context.Background())
	cancel()
	if err := sess.Run(canceled, app, 500_000); err == nil {
		t.Fatal("pre-canceled run returned nil")
	}
	if cy := s.Clock.Cycle(); cy != 0 {
		t.Fatalf("pre-canceled run advanced %d cycles", cy)
	}

	// Cancel mid-run: the run stops within one poll batch and the session
	// remains drainable — Result assembles the partial profile.
	ctx, cancel2 := context.WithCancel(context.Background())
	done := uint64(0)
	stopAt := uint64(40_000)
	s.Clock.Attach("canary", sim.TickerFunc(func(cycle uint64) {
		done = cycle
		if cycle == stopAt {
			cancel2()
		}
	}))
	err := sess.Run(ctx, app, 10_000_000)
	if err == nil || !strings.Contains(err.Error(), "canceled") {
		t.Fatalf("mid-run cancellation error = %v", err)
	}
	if done < stopAt || done > stopAt+RunCancelEvery {
		t.Fatalf("run stopped at cycle %d, want within one batch of %d", done, stopAt)
	}
	p, resErr := sess.Result("partial")
	if resErr != nil {
		t.Fatalf("partial flush failed: %v", resErr)
	}
	if len(p.Series["ipc"].Samples) == 0 {
		t.Fatal("partial profile has no samples")
	}
}

func TestExternalSamplingModel(t *testing.T) {
	// 17 parameters × 1000 windows: the conventional approach costs
	// 2 reads × 9 bytes each per parameter per window.
	got := ExternalSamplingBytes(17, 1000)
	if got != 17*1000*2*9 {
		t.Errorf("ExternalSamplingBytes = %d", got)
	}
}

// markSuspectQuadratic checks every gap against every sample: the oracle
// for markSuspect's merge walk.
func markSuspectQuadratic(se *Series, gaps []tmsg.Gap) {
	prev := uint64(0)
	for i := range se.Samples {
		s := &se.Samples[i]
		for _, g := range gaps {
			end := g.EndCycle
			if g.Open() {
				end = ^uint64(0)
			}
			if g.StartCycle < s.Cycle && end > prev {
				s.Suspect = true
				break
			}
		}
		prev = s.Cycle
	}
}

// TestMarkSuspectMatchesQuadratic compares the merge walk with the
// quadratic scan over random cycle-ordered samples and gaps in decoder
// order (starts never decrease), with open gaps, empty gaps, gaps ending
// before they start and samples sharing a cycle.
func TestMarkSuspectMatchesQuadratic(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 3000; trial++ {
		var samples []Sample
		cy := uint64(0)
		for i := rng.Intn(40); i > 0; i-- {
			cy += uint64(rng.Intn(50))
			samples = append(samples, Sample{Cycle: cy})
		}
		var gaps []tmsg.Gap
		start := uint64(0)
		for i := rng.Intn(8); i > 0; i-- {
			start += uint64(rng.Intn(300))
			g := tmsg.Gap{StartCycle: start}
			switch rng.Intn(4) {
			case 0: // open: runs to the end of the stream
			case 1:
				g.EndCycle = start - min(start, uint64(rng.Intn(20)))
			default:
				g.EndCycle = start + uint64(rng.Intn(200))
			}
			gaps = append(gaps, g)
		}
		got := &Series{Samples: append([]Sample(nil), samples...)}
		want := &Series{Samples: append([]Sample(nil), samples...)}
		markSuspect(got, gaps)
		markSuspectQuadratic(want, gaps)
		for i := range want.Samples {
			if got.Samples[i] != want.Samples[i] {
				t.Fatalf("trial %d sample %d (cycle %d): suspect %v, quadratic %v\nsamples %v\ngaps %+v",
					trial, i, want.Samples[i].Cycle, got.Samples[i].Suspect, want.Samples[i].Suspect, samples, gaps)
			}
		}
	}
}

// TestResultSizesDecodeOnce: Result decodes into one array sized from the
// messages the trace buffer took, exact on a clean link, and fills each
// series once.
func TestResultSizesDecodeOnce(t *testing.T) {
	flaky, err := fault.Parse("flaky-cable", 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		name  string
		spec  Spec
		exact bool
	}{
		{"unframed", Spec{Resolution: 500, Params: StandardParams()}, true},
		{"framed", Spec{Resolution: 500, Params: StandardParams(), DAP: true, Framed: true}, true},
		{"flaky-cable", Spec{Resolution: 500, Params: StandardParams(), DAP: true, Fault: &flaky}, false},
	} {
		s, app := buildApp(t, soc.TC1797().WithED(), stdSpec())
		sess := NewSession(s, c.spec)
		mustRun(t, sess, app, 300_000)
		p, err := sess.Result("app")
		if err != nil {
			t.Fatal(err)
		}
		if len(p.Msgs) == 0 || cap(p.Msgs) < len(p.Msgs) || c.exact && cap(p.Msgs) != len(p.Msgs) {
			t.Errorf("%s: %d messages decoded into capacity %d", c.name, len(p.Msgs), cap(p.Msgs))
		}
		for name, se := range p.Series {
			if cap(se.Samples) != len(se.Samples) {
				t.Errorf("%s: series %s: %d samples in capacity %d", c.name, name, len(se.Samples), cap(se.Samples))
			}
		}
	}
}
