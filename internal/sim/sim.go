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
// between wakes instead of dispatching no-op Ticks into it, and jumps
// straight over cycles on which no ticker at all is due.
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
// It is a no-op when unattached and for a ticker the clock does not
// schedule: one that is not a Sleeper, or any ticker while wake
// scheduling is disabled. Such a ticker is always due, and stays so.
// Rescheduling earlier than necessary is always safe; rescheduling *later*
// than the component's true next event would skip work and is the caller's
// responsibility to avoid.
func (w *Waker) Reschedule(next uint64) {
	if w == nil || w.c.sleepers[w.i] == nil {
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
// deterministically). One loop, dispatch, ticks the components due on a
// cycle, always in registration order, so the wake schedule never
// perturbs intra-cycle priority. Sleepers are skipped while idle; a cycle
// with one component due runs it solo, and a cycle with none due is
// jumped over (soloRun).
type Clock struct {
	cycle   uint64
	tickers []Ticker
	names   []string

	// Wake schedule, parallel to tickers: wake[i] is the next cycle on
	// which tickers[i] is due. sleepers[i] is the ticker as a Sleeper, or
	// nil for a ticker that is always due, whose wake stays 0. With wake
	// scheduling disabled every sleepers[i] is nil.
	sleepers    []Sleeper
	wake        []uint64
	wakeEnabled bool // SetWakeScheduling state (default true)
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
	c.sleepers = append(c.sleepers, nil)
	c.wake = append(c.wake, 0)
	c.schedule(i)
	if b, ok := t.(WakeBinder); ok {
		b.BindWake(&Waker{c: c, i: i})
	}
	if c.obs != nil {
		c.obs.addTicker(name)
	}
}

// schedule enters ticker i into the wake schedule: a Sleeper at its next
// wake while scheduling is enabled, otherwise always due.
func (c *Clock) schedule(i int) {
	s, _ := c.tickers[i].(Sleeper)
	if !c.wakeEnabled {
		s = nil
	}
	c.sleepers[i], c.wake[i] = s, 0
	if s != nil {
		c.wake[i] = s.NextWake(c.cycle)
	}
}

// SetWakeScheduling enables or disables the quiescence scheduler. Disabled,
// the wake schedule holds no Sleepers: every ticker is due and dispatched
// every cycle, as before Sleeper existed — the determinism reference mode.
// Re-enabling recomputes all wake cycles. Both modes are bit-for-bit
// identical in simulated behaviour; the toggle exists so tests can prove
// it.
func (c *Clock) SetWakeScheduling(enabled bool) {
	c.wakeEnabled = enabled
	for i := range c.tickers {
		c.schedule(i)
	}
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

// Step advances the simulation by exactly one cycle, through the same
// dispatch as Run. A latched stop does not hold it back and stays
// latched; an instrumented clock does not count it as a Run.
func (c *Clock) Step() {
	stopped := c.stopped
	c.stopped = false
	c.runTo(c.cycle + 1)
	c.stopped = c.stopped || stopped
}

// Run advances the simulation by n cycles, or to the boundary of the
// cycle in which a ticker raised a stop (Waker.Stop).
func (c *Clock) Run(n uint64) {
	if c.obs != nil {
		defer c.measureRun(time.Now(), c.cycle)
	}
	c.runTo(c.cycle + n)
}

// runTo advances the clock to cycle end. On an instrumented clock every
// sampleEvery-th cycle is dispatched timed; the cadence is anchored to
// simulated cycles, so solo runs and skips stop short of the next timed
// cycle. Every other cycle goes to soloRun, and to dispatch when two or
// more tickers are due. Callers that need finer-grained control (e.g.
// Session.Run's cancellation polling) call Run in chunks; no fast path
// crosses the chunk boundary, so the two compose. A latched stop ends the
// loop at the next cycle boundary.
func (c *Clock) runTo(end uint64) {
	o := c.obs
	for c.cycle < end && !c.stopped {
		cy, limit := c.cycle, end
		if o != nil {
			if o.sampleIn == 0 {
				// Countdown instead of modulo: an instrumented clock
				// pays one subtraction per solo run or dispatch.
				o.sampleIn = o.sampleEvery - 1
				o.sampledCycles.Inc()
				c.dispatch(cy, 0, true)
				continue
			}
			limit = min(end, cy+o.sampleIn)
		}
		if !c.soloRun(limit) {
			c.dispatch(cy, 0, false)
		}
		if o != nil {
			o.sampleIn -= c.cycle - cy
		}
	}
}

// dispatch ticks every ticker due on cycle cy, from index from on, in
// registration order, and completes the cycle. After each Sleeper's Tick
// it asks for the Sleeper's next wake. Timed, it adds each Tick's wall
// time to the ticker's sampled_ns counter; a sleeping ticker is not woken
// just to be timed.
func (c *Clock) dispatch(cy uint64, from int, timed bool) {
	tickers := c.tickers[from:]
	wake := c.wake[from:][:len(tickers)]
	sleepers := c.sleepers[from:][:len(tickers)]
	for i, t := range tickers {
		if wake[i] > cy {
			continue
		}
		if timed {
			t0 := time.Now()
			t.Tick(cy)
			c.obs.tickerNS[from+i].Add(uint64(time.Since(t0)))
		} else {
			t.Tick(cy)
		}
		if s := sleepers[i]; s != nil {
			wake[i] = s.NextWake(cy + 1)
		}
	}
	c.cycle = cy + 1
}

// soloRun is the clock's fast path. One scan of the wake schedule finds
// the tickers due this cycle and the earliest wake among the rest. With
// none due the clock jumps straight to that wake. With exactly one due it
// ticks that ticker in a tight loop — no per-cycle scan — until another
// wake comes due, a Reschedule or Stop perturbs the schedule, or the solo
// ticker goes to sleep. Neither crosses end. It returns false, having
// done nothing, when two or more tickers are due. The delivered Tick
// sequence is bit-identical to dispatching every cycle: same cycles, same
// NextWake(cycle+1) requery after every Tick.
func (c *Clock) soloRun(end uint64) bool {
	cy := c.cycle
	solo := -1
	next := NoWake // earliest wake among the tickers not due
	for i, w := range c.wake {
		if w > cy {
			next = min(next, w)
			continue
		}
		if solo >= 0 {
			return false // two runners due: dispatch
		}
		solo = i
	}
	next = min(next, end)
	if solo < 0 {
		c.cycle = next // nothing due before next
		return true
	}
	t, s := c.tickers[solo], c.sleepers[solo]
	c.resched = false
	for cy < next {
		t.Tick(cy)
		if c.resched {
			// A Tick side effect moved someone's wake — possibly to this
			// very cycle — or raised a stop. Dispatching every cycle
			// would still reach a later-registered ticker whose wake just
			// landed on cy (and would have passed an earlier-registered
			// one), so finish this cycle exactly that way.
			if s != nil {
				c.wake[solo] = s.NextWake(cy + 1)
			}
			c.dispatch(cy, solo+1, false)
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
// leaves the solo-run fast path and its skip in play.
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
