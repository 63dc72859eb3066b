// Package fault is the fault-injection harness: seeded, reproducible fault
// plans for the trace tool-link and buffer path. It models the three
// physical failure classes the hardened pipeline must survive:
//
//   - DAP link faults — bit corruption, dropped or truncated frames, and
//     stall/disconnect windows (a loose cable, a tool re-enumeration);
//   - EMEM soft errors — single-bit flips in the buffered trace bytes,
//     which retransmission cannot heal because the link re-reads the same
//     corrupted cell;
//   - trace-FIFO backpressure — jam windows during which the EMEM refuses
//     every append, exercising the MCDS overflow/re-anchor protocol.
//
// Every random decision flows from sim.RNG forks of a single plan seed, so
// a fault schedule replays bit-identically for a given (plan, seed) pair —
// the property that turns a chaos test into a regression test.
package fault

import (
	"fmt"
	"sort"
	"strconv"
	"strings"

	"repro/internal/emem"
	"repro/internal/sim"
)

// LinkPlan describes DAP transport faults. Probabilities are per frame
// transmission (Corrupt/Trunc/Drop) or per cycle (Stall).
type LinkPlan struct {
	CorruptProb float64 // flip 1–3 bits somewhere in the frame
	TruncProb   float64 // cut the frame short
	DropProb    float64 // frame vanishes entirely
	StallProb   float64 // per-cycle chance a stall window opens
	StallMin    uint64  // stall window length bounds, cycles
	StallMax    uint64
}

// MemPlan describes EMEM soft errors.
type MemPlan struct {
	// FlipProb is the per-cycle chance one bit of one currently buffered
	// trace byte flips.
	FlipProb float64
}

// FifoPlan describes trace-FIFO backpressure windows.
type FifoPlan struct {
	JamProb float64 // per-cycle chance a jam window opens
	JamMin  uint64  // jam window length bounds, cycles
	JamMax  uint64
}

// Plan is a composable fault scenario.
type Plan struct {
	Name string
	Seed uint64
	Link LinkPlan
	Mem  MemPlan
	Fifo FifoPlan
}

// Active reports whether the plan injects anything at all.
func (p *Plan) Active() bool {
	if p == nil {
		return false
	}
	return p.Link != LinkPlan{} || p.Mem != MemPlan{} || p.Fifo != FifoPlan{}
}

// Injector executes a Plan against a running pipeline. It ticks on the
// simulation clock (stall/jam window bookkeeping, soft-error flips),
// sleeping between window events, and doubles as the DAP's LinkFault.
// All methods are deterministic in (plan, seed, cycle sequence).
type Injector struct {
	Plan Plan
	Emem *emem.EMEM

	linkRNG *sim.RNG // per-transmission decisions
	memRNG  *sim.RNG // soft-error flips
	winRNG  *sim.RNG // stall/jam window scheduling

	stallUntil uint64
	jamUntil   uint64

	// Window-draw cursor. The stall and jam draws of every cycle before
	// drawn are made on winRNG. NextWake draws ahead on a copy: ahead is
	// winRNG's state once the draws of every cycle before aheadAt are
	// made, none of them opening a window; aheadOK says it was drawn from
	// the current cursor. bound is set once a clock schedules the
	// injector; unbound, it is ticked every cycle.
	bound   bool
	drawn   uint64
	ahead   sim.RNG
	aheadAt uint64
	aheadOK bool

	// Drain, when set, is woken when a stall window opens, before its
	// drain of that cycle: the DAP may be asleep, and must see the window
	// open.
	Drain interface{ Wake() }

	// Statistics.
	FramesCorrupted uint64
	FramesTruncated uint64
	FramesDropped   uint64
	Stalls          uint64
	StallCycles     uint64
	BitFlips        uint64
	Jams            uint64
	JamCycles       uint64
}

// New builds an injector for plan targeting e (which may be nil when the
// plan has no Mem or Fifo component).
func New(plan Plan, e *emem.EMEM) *Injector {
	root := sim.NewRNG(plan.Seed)
	return &Injector{
		Plan:    plan,
		Emem:    e,
		linkRNG: root.Fork(1),
		memRNG:  root.Fork(2),
		winRNG:  root.Fork(3),
	}
}

// maxLookahead bounds how far NextWake draws ahead, so a tiny window
// probability costs a wake every maxLookahead cycles, not an unbounded
// scan.
const maxLookahead = 1 << 16

// Tick implements sim.Ticker: advance fault windows and inject soft
// errors. Attach it to the clock before the DAP so a stall window opened
// at cycle c already blocks that cycle's drain.
func (in *Injector) Tick(cycle uint64) {
	if in.bound && in.drawn < cycle {
		in.catchUp(cycle)
	}
	p := &in.Plan
	if in.stallDraws(cycle) && in.winRNG.Bool(p.Link.StallProb) {
		n := windowLen(in.winRNG, p.Link.StallMin, p.Link.StallMax)
		in.stallUntil = cycle + n
		in.Stalls++
		in.StallCycles += n
		if in.Drain != nil {
			in.Drain.Wake()
		}
	}
	if in.jamming() {
		if cycle >= in.jamUntil && in.winRNG.Bool(p.Fifo.JamProb) {
			n := windowLen(in.winRNG, p.Fifo.JamMin, p.Fifo.JamMax)
			in.jamUntil = cycle + n
			in.Jams++
			in.JamCycles += n
		}
		in.Emem.Backpressure = cycle < in.jamUntil
	}
	if p.Mem.FlipProb > 0 && in.Emem != nil && in.Emem.Level() > 0 &&
		in.memRNG.Bool(p.Mem.FlipProb) {
		i := uint32(in.memRNG.Intn(int(in.Emem.Level())))
		in.Emem.CorruptBit(i, uint8(in.memRNG.Intn(8)))
		in.BitFlips++
	}
	in.drawn = cycle + 1
	in.aheadOK = false
}

// BindWake implements sim.WakeBinder: the window draws start on the
// cycle the injector is attached on.
func (in *Injector) BindWake(w *sim.Waker) {
	in.bound = true
	in.drawn = w.Cycle()
}

// NextWake implements sim.Sleeper. The window draws depend only on the
// injector's own RNG and windows, so it draws ahead to the first cycle a
// stall or jam window opens, or a jam closes (Backpressure clears), at
// most maxLookahead cycles on. A soft-error plan ticks every cycle: its
// draw is gated on the ring level, which the injector does not own (a
// session attaches such an injector as a plain, unbound ticker).
func (in *Injector) NextWake(from uint64) uint64 {
	if !in.bound || in.Plan.Mem.FlipProb > 0 {
		return from
	}
	if in.Plan.Link.StallProb == 0 && !in.jamming() {
		return sim.NoWake
	}
	limit := in.drawn + maxLookahead
	// A jam's close tick is a wake even when it is the next cycle to
	// draw (a one-cycle jam, or a stall opened on a jam's last cycle).
	if in.jamming() && in.jamUntil >= in.drawn {
		limit = min(limit, in.jamUntil)
	}
	in.lookahead(limit)
	return in.aheadAt
}

// jamming reports whether the plan draws jam windows.
func (in *Injector) jamming() bool { return in.Plan.Fifo.JamProb > 0 && in.Emem != nil }

// stallDraws and jamDraws report whether cycle c makes a stall or a jam
// draw: one is made on every cycle outside an open window.
func (in *Injector) stallDraws(c uint64) bool {
	return in.Plan.Link.StallProb > 0 && c >= in.stallUntil
}

func (in *Injector) jamDraws(c uint64) bool { return in.jamming() && c >= in.jamUntil }

// lookahead draws on a copy of winRNG from the cursor up to limit, or up
// to the first cycle whose draws open a window, and caches where it
// stopped. Tick(c) then makes that cycle's draws on the real RNG.
func (in *Injector) lookahead(limit uint64) {
	r := *in.winRNG
	c := in.drawn
	for ; c < limit; c++ {
		s := r
		if in.stallDraws(c) && s.Bool(in.Plan.Link.StallProb) ||
			in.jamDraws(c) && s.Bool(in.Plan.Fifo.JamProb) {
			break
		}
		r = s
	}
	in.ahead, in.aheadAt, in.aheadOK = r, c, true
}

// catchUp makes the window draws of the cycles [drawn, cycle) the
// injector slept through. None of them opens a window, or the wake would
// have come earlier; an early wake redraws from the cursor.
func (in *Injector) catchUp(cycle uint64) {
	if !in.aheadOK || in.aheadAt != cycle {
		in.lookahead(cycle)
		if in.aheadAt != cycle {
			panic(fmt.Sprintf("fault: a window opened on cycle %d, which the injector slept through", in.aheadAt))
		}
	}
	*in.winRNG = in.ahead
	in.drawn = cycle
}

func windowLen(rng *sim.RNG, lo, hi uint64) uint64 {
	if lo == 0 {
		lo = 1
	}
	if hi < lo {
		hi = lo
	}
	return lo + uint64(rng.Intn(int(hi-lo)+1))
}

// UpAt implements dap.LinkFault: the link is down until the open stall
// window closes.
func (in *Injector) UpAt(cycle uint64) uint64 { return max(cycle, in.stallUntil) }

// Transmit implements dap.LinkFault: possibly drop, truncate or corrupt
// the frame. The input slice is never mutated.
func (in *Injector) Transmit(_ uint64, frame []byte) ([]byte, bool) {
	p := &in.Plan.Link
	if p.DropProb > 0 && in.linkRNG.Bool(p.DropProb) {
		in.FramesDropped++
		return nil, false
	}
	if p.TruncProb > 0 && in.linkRNG.Bool(p.TruncProb) {
		in.FramesTruncated++
		n := in.linkRNG.Intn(len(frame))
		c := make([]byte, n)
		copy(c, frame[:n])
		return c, true
	}
	if p.CorruptProb > 0 && in.linkRNG.Bool(p.CorruptProb) {
		in.FramesCorrupted++
		c := make([]byte, len(frame))
		copy(c, frame)
		for k := in.linkRNG.Range(1, 3); k > 0; k-- {
			c[in.linkRNG.Intn(len(c))] ^= 1 << in.linkRNG.Intn(8)
		}
		return c, true
	}
	return frame, true
}

// Scenarios returns the named preset plans, all derived from seed.
func Scenarios(seed uint64) []Plan {
	return []Plan{
		{Name: "clean", Seed: seed},
		{Name: "noisy-link", Seed: seed, Link: LinkPlan{CorruptProb: 0.02}},
		{Name: "flaky-cable", Seed: seed, Link: LinkPlan{
			CorruptProb: 0.005, DropProb: 0.002,
			StallProb: 0.0002, StallMin: 500, StallMax: 5_000}},
		{Name: "soft-errors", Seed: seed, Mem: MemPlan{FlipProb: 0.0005}},
		{Name: "fifo-jam", Seed: seed, Fifo: FifoPlan{
			JamProb: 0.0005, JamMin: 100, JamMax: 2_000}},
		{Name: "everything", Seed: seed,
			Link: LinkPlan{CorruptProb: 0.01, TruncProb: 0.002, DropProb: 0.002,
				StallProb: 0.0001, StallMin: 200, StallMax: 2_000},
			Mem:  MemPlan{FlipProb: 0.0002},
			Fifo: FifoPlan{JamProb: 0.0002, JamMin: 100, JamMax: 1_000}},
	}
}

// Scenario returns the preset plan with the given name, or ok=false.
func Scenario(name string, seed uint64) (Plan, bool) {
	for _, p := range Scenarios(seed) {
		if p.Name == name {
			return p, true
		}
	}
	return Plan{}, false
}

// Parse builds a Plan from a -faults command-line spec: either a preset
// scenario name ("flaky-cable") or a comma-separated k=v list, e.g.
//
//	corrupt=0.01,drop=0.002,stall=0.0001,stallmin=200,stallmax=2000,
//	trunc=0.001,flip=0.0005,jam=0.0002,jammin=100,jammax=1000
func Parse(spec string, seed uint64) (Plan, error) {
	if p, ok := Scenario(spec, seed); ok {
		return p, nil
	}
	p := Plan{Name: spec, Seed: seed}
	for _, kv := range strings.Split(spec, ",") {
		kv = strings.TrimSpace(kv)
		if kv == "" {
			continue
		}
		k, v, ok := strings.Cut(kv, "=")
		if !ok {
			return Plan{}, fmt.Errorf("fault: %q is neither a scenario (%s) nor k=v", kv, scenarioNames())
		}
		f, err := strconv.ParseFloat(v, 64)
		if err != nil {
			return Plan{}, fmt.Errorf("fault: bad value in %q: %v", kv, err)
		}
		switch strings.ToLower(k) {
		case "corrupt":
			p.Link.CorruptProb = f
		case "trunc":
			p.Link.TruncProb = f
		case "drop":
			p.Link.DropProb = f
		case "stall":
			p.Link.StallProb = f
		case "stallmin":
			p.Link.StallMin = uint64(f)
		case "stallmax":
			p.Link.StallMax = uint64(f)
		case "flip":
			p.Mem.FlipProb = f
		case "jam":
			p.Fifo.JamProb = f
		case "jammin":
			p.Fifo.JamMin = uint64(f)
		case "jammax":
			p.Fifo.JamMax = uint64(f)
		default:
			return Plan{}, fmt.Errorf("fault: unknown key %q", k)
		}
	}
	return p, nil
}

func scenarioNames() string {
	var names []string
	for _, p := range Scenarios(0) {
		names = append(names, p.Name)
	}
	sort.Strings(names)
	return strings.Join(names, "|")
}
