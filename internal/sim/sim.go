// Package sim provides the cycle-stepped simulation kernel shared by every
// hardware model in this repository: a global clock, a deterministic
// pseudo-random source, and the event identifiers that performance-relevant
// hardware events are reported under.
//
// The whole SoC is simulated with one Tick per CPU clock cycle. Components
// register with a Clock and are stepped in a fixed, deterministic order each
// cycle, so two runs with the same seed are bit-for-bit identical — a
// property the paper's methodology depends on only loosely (automotive runs
// are explicitly *not* repeatable) but which makes every experiment in this
// repository reproducible.
package sim

import (
	"fmt"
	"time"

	"repro/internal/obs"
)

// Ticker is implemented by every component that advances once per clock
// cycle. Tick receives the current cycle number (starting at 0).
type Ticker interface {
	Tick(cycle uint64)
}

// TickerFunc adapts a plain function to the Ticker interface.
type TickerFunc func(cycle uint64)

// Tick calls f(cycle).
func (f TickerFunc) Tick(cycle uint64) { f(cycle) }

// NoWake is the NextWake return value of a Sleeper that has no scheduled
// work at all (e.g. a disabled peripheral): it is never ticked until
// something reschedules it.
const NoWake = ^uint64(0)

// Sleeper is an optional extension of Ticker for components that know the
// next cycle on which they have work. The clock skips a Sleeper entirely
// between wakes instead of dispatching no-op Ticks into it.
//
// Contract: NextWake(from) returns the earliest cycle >= from on which the
// component needs its Tick called (NoWake for "never"). The clock calls it
// after every delivered Tick with from = cycle+1. Waking a component early
// must be harmless — a Tick on a cycle with no work must be a behavioural
// no-op — because external reschedules (see Waker) may be conservative.
// Per-cycle state may sleep only if the skipped cycles can be folded in
// closed form on the next Tick (the DAP's drain credit after k cycles is
// (credit + k·rate) mod denom) and the next cycle with an observable
// effect is computable from state the component owns or is woken on (the
// MCDS bounds when a basis word can reach its due value by its maximum
// rise per cycle). RNG draws that a component owns, and that depend only
// on its own state, may be made ahead: the fault injector draws its
// window schedule on a copy of its RNG to find the first cycle a window
// opens, and its Tick catches up the draws of the cycles it slept
// through. Per-cycle side effects with no closed form that read state
// the component does not own — a draw gated on the ring level, watermark
// sampling — must NOT sleep. A component that is *terminally
// idle* is the easy case: a halted CPU core has no per-cycle work at all,
// so it may report NoWake — provided whatever un-halts it (Reset, an
// interrupt router delivering to a halted core) reschedules via its Waker.
type Sleeper interface {
	Ticker
	NextWake(from uint64) uint64
}

// WakeBinder is implemented by Sleepers whose wake cycle can change from
// the outside mid-sleep (e.g. a bus write re-enabling a timer). Attach
// hands such a component its Waker handle.
type WakeBinder interface {
	BindWake(w *Waker)
}

// Waker is a component's handle back into the clock's wake schedule. The
// zero of *Waker is usable: all methods are nil-receiver safe, so a
// peripheral driven directly by tests (no clock) works unchanged.
type Waker struct {
	c *Clock
	i int
}

// Cycle returns the clock's current (in-progress) cycle, or 0 when the
// component is not attached to a clock.
func (w *Waker) Cycle() uint64 {
	if w == nil {
		return 0
	}
	return w.c.cycle
}

// Reschedule moves the component's next wake to next (NoWake parks it).
// It is a no-op when unattached or when wake scheduling is disabled.
// Rescheduling earlier than necessary is always safe; rescheduling *later*
// than the component's true next event would skip work and is the caller's
// responsibility to avoid.
func (w *Waker) Reschedule(next uint64) {
	if w == nil || !w.c.scheduling {
		return
	}
	w.c.wake[w.i] = next
	w.c.resched = true
}

// Stop asks the running Run to end at the boundary after the current
// cycle. The rest of the cycle completes as if nothing happened: every
// other ticker due this cycle still ticks, in registration order. The stop
// stays latched — a chunked caller's next Run returns without executing a
// cycle — until RunToStop returns. Raised outside a Run it ends the next
// one before its first cycle. Unlike Reschedule it works with wake
// scheduling disabled too; it is a no-op when unattached.
func (w *Waker) Stop() {
	if w == nil {
		return
	}
	w.c.stopped = true
	w.c.resched = true // ends a solo run after this cycle
}

// Clock drives the simulation. Components are stepped in registration
// order; registration order therefore defines intra-cycle priority (bus
// masters registered earlier win same-cycle arbitration races
// deterministically). Sleepers are skipped while idle, but on any cycle
// where several components are due they still tick in registration order,
// so the wake schedule never perturbs intra-cycle priority.
type Clock struct {
	cycle   uint64
	tickers []Ticker
	names   []string

	// Wake schedule, parallel to tickers. sleepers[i] is nil for an
	// always-on ticker and wake[i] is then permanently 0 (always due);
	// for a Sleeper, wake[i] is the next cycle its Tick must run.
	sleepers    []Sleeper
	wake        []uint64
	numSleepers int
	alwaysOn    int
	wakeEnabled bool // SetWakeScheduling state (default true)
	scheduling  bool // wakeEnabled && numSleepers > 0
	skippable   bool // scheduling && every ticker is a Sleeper
	resched     bool // a Waker.Reschedule or Stop happened (ends solo runs)
	stopped     bool // a Waker.Stop is latched: Run executes no more cycles

	obs *clockObs // nil when the clock is not instrumented
}

// NewClock returns a clock at cycle 0 with no components attached.
func NewClock() *Clock { return &Clock{wakeEnabled: true} }

// Attach registers t to be stepped every cycle — or, when t implements
// Sleeper, only on its wake cycles. The name is used only for diagnostics.
// Attach must not be called while Run is executing.
func (c *Clock) Attach(name string, t Ticker) {
	i := len(c.tickers)
	c.tickers = append(c.tickers, t)
	c.names = append(c.names, name)
	s, _ := t.(Sleeper)
	c.sleepers = append(c.sleepers, s)
	w := uint64(0)
	if s != nil {
		c.numSleepers++
		if c.wakeEnabled {
			w = s.NextWake(c.cycle)
		}
	} else {
		c.alwaysOn++
	}
	c.wake = append(c.wake, w)
	if b, ok := t.(WakeBinder); ok {
		b.BindWake(&Waker{c: c, i: i})
	}
	c.refreshSched()
	if c.obs != nil {
		c.obs.addTicker(name)
	}
}

func (c *Clock) refreshSched() {
	c.scheduling = c.wakeEnabled && c.numSleepers > 0
	c.skippable = c.scheduling && c.alwaysOn == 0 && len(c.tickers) > 0
}

// SetWakeScheduling enables or disables the quiescence scheduler. Disabled,
// every ticker is dispatched every cycle exactly as before Sleeper existed —
// the determinism reference mode. Re-enabling recomputes all wake cycles.
// Both modes are bit-for-bit identical in simulated behaviour; the toggle
// exists so tests can prove it.
func (c *Clock) SetWakeScheduling(enabled bool) {
	c.wakeEnabled = enabled
	for i, s := range c.sleepers {
		if s != nil && enabled {
			c.wake[i] = s.NextWake(c.cycle)
		} else {
			c.wake[i] = 0
		}
	}
	c.refreshSched()
}

// Cycle returns the number of completed cycles.
func (c *Clock) Cycle() uint64 { return c.cycle }

// DefaultSampleEvery is the default per-ticker timing sample period of an
// instrumented clock: one fully timed cycle out of every 1024.
const DefaultSampleEvery = 1024

// clockObs holds the metric handles of an instrumented clock.
type clockObs struct {
	reg         *obs.Registry
	sampleEvery uint64
	sampleIn    uint64 // cycles until the next fully timed step

	cycles        *obs.Counter // sim.cycles
	wallNS        *obs.Counter // sim.wall_ns (Run wall time)
	cyclesPerSec  *obs.Gauge   // sim.cycles_per_sec (latest Run)
	sampledCycles *obs.Counter // sim.sampled_cycles
	tickerNS      []*obs.Counter
}

func (o *clockObs) addTicker(name string) {
	o.tickerNS = append(o.tickerNS, o.reg.Counter("sim.ticker."+name+".sampled_ns"))
}

// Instrument publishes clock metrics into reg: a cycle counter, the
// wall-clock simulation rate, and a sampled per-ticker time-share profile
// (every sampleEvery-th cycle is fully timed; 0 selects
// DefaultSampleEvery). Like the MCDS observing the TriCore, the
// instrumentation never changes simulated behaviour — only the wall-clock
// cost of a sampled cycle. A nil registry leaves the clock untouched.
func (c *Clock) Instrument(reg *obs.Registry, sampleEvery uint64) {
	if reg == nil {
		return
	}
	if sampleEvery == 0 {
		sampleEvery = DefaultSampleEvery
	}
	o := &clockObs{
		reg:           reg,
		sampleEvery:   sampleEvery,
		cycles:        reg.Counter("sim.cycles"),
		wallNS:        reg.Counter("sim.wall_ns"),
		cyclesPerSec:  reg.Gauge("sim.cycles_per_sec"),
		sampledCycles: reg.Counter("sim.sampled_cycles"),
	}
	for _, name := range c.names {
		o.addTicker(name)
	}
	c.obs = o
}

// Step advances the simulation by exactly one cycle.
func (c *Clock) Step() {
	if o := c.obs; o != nil {
		// Countdown instead of modulo: the uninstrumented fast path pays
		// one nil check, the instrumented fast path one decrement.
		if o.sampleIn == 0 {
			o.sampleIn = o.sampleEvery - 1
			c.stepTimed(o)
			return
		}
		o.sampleIn--
	}
	c.stepPlain()
}

// stepPlain dispatches one cycle. Without a wake schedule it is the
// original flat loop; with one, each ticker is dispatched only when due
// and — crucially — still in registration order, so intra-cycle priority
// is bit-for-bit what an unscheduled clock produces.
func (c *Clock) stepPlain() {
	cy := c.cycle
	if !c.scheduling {
		for _, t := range c.tickers {
			t.Tick(cy)
		}
		c.cycle++
		return
	}
	for i, t := range c.tickers {
		if c.wake[i] > cy {
			continue
		}
		t.Tick(cy)
		if s := c.sleepers[i]; s != nil {
			c.wake[i] = s.NextWake(cy + 1)
		}
	}
	c.cycle++
}

// stepTimed is a fully timed Step: each ticker's wall time is accumulated
// into its sampled_ns counter. A sleeping ticker is not woken just to be
// timed — its time share is sampled only on cycles it actually runs.
func (c *Clock) stepTimed(o *clockObs) {
	cy := c.cycle
	if !c.scheduling {
		for i, t := range c.tickers {
			t0 := time.Now()
			t.Tick(cy)
			o.tickerNS[i].Add(uint64(time.Since(t0)))
		}
	} else {
		for i, t := range c.tickers {
			if c.wake[i] > cy {
				continue
			}
			t0 := time.Now()
			t.Tick(cy)
			o.tickerNS[i].Add(uint64(time.Since(t0)))
			if s := c.sleepers[i]; s != nil {
				c.wake[i] = s.NextWake(cy + 1)
			}
		}
	}
	o.sampledCycles.Inc()
	c.cycle++
}

// nextWake returns the earliest scheduled wake cycle across all tickers.
func (c *Clock) nextWake() uint64 {
	next := NoWake
	for _, w := range c.wake {
		if w < next {
			next = w
		}
	}
	return next
}

// Run advances the simulation by n cycles, or to the boundary of the
// cycle in which a ticker raised a stop (Waker.Stop).
func (c *Clock) Run(n uint64) {
	if c.obs != nil {
		defer c.measureRun(time.Now(), c.cycle)
	}
	c.runTo(c.cycle + n)
}

// runTo advances the clock to cycle end. When every attached ticker is a
// Sleeper the clock jumps straight to the earliest wake cycle instead of
// dispatching empty cycles one by one, and a lone due ticker runs solo
// (soloRun) — on an instrumented clock up to the next timed cycle.
// Callers that need finer-grained control (e.g. Session.Run's
// cancellation polling) call Run in chunks; neither fast path crosses the
// chunk boundary, so the two compose. A latched stop ends the loop at the
// next cycle boundary.
func (c *Clock) runTo(end uint64) {
	o := c.obs
	for c.cycle < end && !c.stopped {
		if c.skippable {
			if next := c.nextWake(); next > c.cycle {
				if next > end {
					next = end
				}
				skip := next - c.cycle
				c.cycle = next
				if o != nil {
					// Skipped cycles consume sampling budget: the timing
					// sample cadence stays anchored to simulated cycles,
					// not to dispatched steps.
					if o.sampleIn > skip {
						o.sampleIn -= skip
					} else {
						o.sampleIn = 0
					}
				}
				continue
			}
		}
		limit := end
		if o != nil {
			if o.sampleIn == 0 {
				o.sampleIn = o.sampleEvery - 1
				c.stepTimed(o)
				continue
			}
			// A solo run stops short of the next timed cycle.
			limit = min(end, c.cycle+o.sampleIn)
		}
		start := c.cycle
		if !c.scheduling || !c.soloRun(limit) {
			c.stepPlain()
		}
		if o != nil {
			o.sampleIn -= c.cycle - start
		}
	}
}

// soloRun is the single-runner fast path: when exactly one ticker is due
// this cycle and every other component sleeps strictly later, the clock
// ticks the solo component in a tight loop — no per-cycle schedule scan —
// until another wake comes due, a Reschedule perturbs the schedule, the
// solo component goes to sleep, or end. It returns false (having done
// nothing) when the cycle is not solo, leaving stepPlain to dispatch it.
// The delivered Tick sequence is bit-identical to stepPlain's: same
// cycles, same NextWake(cycle+1) requery after every Tick.
func (c *Clock) soloRun(end uint64) bool {
	cy := c.cycle
	solo := -1
	next := NoWake // earliest wake among the other tickers
	for i, w := range c.wake {
		if w > cy {
			if w < next {
				next = w
			}
			continue
		}
		if solo >= 0 {
			return false // two runners due: generic dispatch
		}
		solo = i
	}
	if solo < 0 {
		return false // quiescent cycle: the skippable bulk skip handles it
	}
	if next > end {
		next = end
	}
	t := c.tickers[solo]
	s := c.sleepers[solo]
	c.resched = false
	for cy < next {
		t.Tick(cy)
		if c.resched {
			// A Tick side effect moved someone's wake — possibly to this
			// very cycle. stepPlain's scan would still reach any
			// later-registered ticker whose wake just landed on cy (and
			// would have already passed any earlier-registered one), so
			// finish this cycle exactly that way, then hand back.
			if s != nil {
				c.wake[solo] = s.NextWake(cy + 1)
			}
			for i := solo + 1; i < len(c.tickers); i++ {
				if c.wake[i] > cy {
					continue
				}
				c.tickers[i].Tick(cy)
				if si := c.sleepers[i]; si != nil {
					c.wake[i] = si.NextWake(cy + 1)
				}
			}
			c.cycle = cy + 1
			return true
		}
		cy++
		c.cycle = cy
		if s != nil {
			if w := s.NextWake(cy); w > cy {
				c.wake[solo] = w
				return true
			}
		}
	}
	return true
}

// RunToStop advances the simulation until a ticker raises a stop or limit
// cycles have run. It returns the cycles executed and whether a stop ended
// the run; a stop latched before the call (a watch armed already
// satisfied) gives 0 cycles. The latch is cleared on return, so the next
// run starts afresh. Unlike a predicate polled between cycles, a stop
// leaves the bulk skip and the solo-run fast path in play.
func (c *Clock) RunToStop(limit uint64) (uint64, bool) {
	start := c.cycle
	c.Run(limit)
	stopped := c.stopped
	c.stopped = false
	return c.cycle - start, stopped
}

// measureRun accounts one Run episode: executed cycles, wall time, and the
// resulting simulation rate.
func (c *Clock) measureRun(start time.Time, startCycle uint64) {
	o := c.obs
	n := c.cycle - startCycle
	el := time.Since(start)
	o.cycles.Add(n)
	o.wallNS.Add(uint64(el))
	if el > 0 && n > 0 {
		o.cyclesPerSec.Set(float64(n) / el.Seconds())
	}
}

// String describes the attached components.
func (c *Clock) String() string {
	return fmt.Sprintf("Clock{cycle=%d components=%d}", c.cycle, len(c.tickers))
}

// RNG is a deterministic 64-bit pseudo-random generator (splitmix64). It is
// deliberately not math/rand so that its sequence is stable across Go
// releases: synthetic customer applications are generated from seeds and
// must not drift between toolchain versions.
type RNG struct{ state uint64 }

// NewRNG returns a generator seeded with seed.
func NewRNG(seed uint64) *RNG { return &RNG{state: seed} }

// Uint64 returns the next value in the sequence.
func (r *RNG) Uint64() uint64 {
	r.state += 0x9e3779b97f4a7c15
	z := r.state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// Intn returns a value in [0, n). It panics if n <= 0.
func (r *RNG) Intn(n int) int {
	if n <= 0 {
		panic("sim: Intn with non-positive n")
	}
	return int(r.Uint64() % uint64(n))
}

// Range returns a value in [lo, hi]. It panics if hi < lo.
func (r *RNG) Range(lo, hi int) int {
	if hi < lo {
		panic("sim: Range with hi < lo")
	}
	return lo + r.Intn(hi-lo+1)
}

// Float64 returns a value in [0, 1).
func (r *RNG) Float64() float64 {
	return float64(r.Uint64()>>11) / float64(1<<53)
}

// Bool returns true with probability p.
func (r *RNG) Bool(p float64) bool { return r.Float64() < p }

// Fork derives an independent generator whose sequence is a pure function
// of the parent state and the label, without disturbing the parent.
func (r *RNG) Fork(label uint64) *RNG {
	return NewRNG(r.state ^ (label*0xd1342543de82ef95 + 0x2545f4914f6cdd1d))
}
