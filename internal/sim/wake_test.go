package sim

import (
	"testing"
)

// periodic is a minimal Sleeper: it fires every period cycles starting at
// offset and records the cycles it was ticked with work to do.
type periodic struct {
	period, offset uint64
	enabled        bool
	fired          []uint64
	ticks          uint64 // every delivered Tick, work or not
	waker          *Waker
}

func (p *periodic) Tick(cycle uint64) {
	p.ticks++
	if !p.enabled {
		return
	}
	if (cycle+p.period-p.offset)%p.period == 0 {
		p.fired = append(p.fired, cycle)
	}
}

func (p *periodic) NextWake(from uint64) uint64 {
	if !p.enabled {
		return NoWake
	}
	r := (from + p.period - p.offset) % p.period
	if r == 0 {
		return from
	}
	return from + p.period - r
}

func (p *periodic) BindWake(w *Waker) { p.waker = w }

func TestSleeperSkipsIdleCycles(t *testing.T) {
	c := NewClock()
	p := &periodic{period: 10, offset: 3, enabled: true}
	c.Attach("p", p)
	c.Run(100)
	want := []uint64{3, 13, 23, 33, 43, 53, 63, 73, 83, 93}
	if len(p.fired) != len(want) {
		t.Fatalf("fired %v, want %v", p.fired, want)
	}
	for i := range want {
		if p.fired[i] != want[i] {
			t.Fatalf("fired %v, want %v", p.fired, want)
		}
	}
	if p.ticks != 10 {
		t.Errorf("sleeper was dispatched %d times, want 10 (one per expiry)", p.ticks)
	}
	if c.Cycle() != 100 {
		t.Errorf("cycle = %d, want 100", c.Cycle())
	}
}

func TestSleeperMatchesAlwaysOn(t *testing.T) {
	run := func(scheduled bool) []uint64 {
		c := NewClock()
		if !scheduled {
			c.SetWakeScheduling(false)
		}
		p := &periodic{period: 7, offset: 5, enabled: true}
		c.Attach("cpu", TickerFunc(func(uint64) {})) // always-on: always due
		c.Attach("p", p)
		c.Run(500)
		return p.fired
	}
	on, off := run(true), run(false)
	if len(on) != len(off) {
		t.Fatalf("scheduler on fired %d, off fired %d", len(on), len(off))
	}
	for i := range on {
		if on[i] != off[i] {
			t.Fatalf("fire %d: on=%d off=%d", i, on[i], off[i])
		}
	}
}

func TestWakeOrderingPreservesRegistrationPriority(t *testing.T) {
	// Two sleepers due on the same cycle must tick in registration order,
	// interleaved correctly with an always-on ticker registered between them.
	c := NewClock()
	var order []string
	a := &periodic{period: 6, enabled: true}
	b := &periodic{period: 3, enabled: true}
	c.Attach("a", sleeperFunc{a, func(cy uint64) { order = append(order, "a") }})
	c.Attach("mid", TickerFunc(func(cy uint64) {
		if cy%6 == 0 {
			order = append(order, "mid")
		}
	}))
	c.Attach("b", sleeperFunc{b, func(cy uint64) { order = append(order, "b") }})
	c.Run(7) // cycles 0..6; common due cycle is 0 and 6
	want := []string{"a", "mid", "b", "b", "a", "mid", "b"}
	if len(order) != len(want) {
		t.Fatalf("order = %v, want %v", order, want)
	}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order = %v, want %v", order, want)
		}
	}
}

// sleeperFunc wraps a periodic's schedule with a recording Tick.
type sleeperFunc struct {
	p  *periodic
	fn func(cycle uint64)
}

func (s sleeperFunc) Tick(cycle uint64)           { s.p.Tick(cycle); s.fn(cycle) }
func (s sleeperFunc) NextWake(from uint64) uint64 { return s.p.NextWake(from) }

func TestWakerReschedule(t *testing.T) {
	c := NewClock()
	p := &periodic{period: 1000, offset: 500, enabled: true}
	c.Attach("p", p)
	c.Run(10)
	if p.ticks != 0 {
		t.Fatalf("sleeper ticked %d times before its wake", p.ticks)
	}
	// An external event changes the schedule mid-sleep.
	p.period, p.offset = 4, 2
	p.waker.Reschedule(p.NextWake(c.Cycle()))
	c.Run(10) // cycles 10..19: grid (c ≡ 2 mod 4) hits 10, 14, 18
	if len(p.fired) != 3 || p.fired[0] != 10 || p.fired[2] != 18 {
		t.Fatalf("fired = %v, want [10 14 18]", p.fired)
	}
}

func TestWakerNilSafe(t *testing.T) {
	var w *Waker
	w.Reschedule(5) // must not panic
	if w.Cycle() != 0 {
		t.Errorf("nil waker cycle = %d", w.Cycle())
	}
}

func TestSetWakeSchedulingRoundTrip(t *testing.T) {
	c := NewClock()
	p := &periodic{period: 5, enabled: true}
	c.Attach("p", p)
	c.Run(10) // fires at 0, 5
	c.SetWakeScheduling(false)
	c.Run(10) // every cycle dispatched; fires at 10, 15
	if p.ticks != 2+10 {
		t.Errorf("ticks = %d, want 12", p.ticks)
	}
	c.SetWakeScheduling(true)
	c.Run(10) // fires at 20, 25
	if len(p.fired) != 6 || p.fired[5] != 25 {
		t.Fatalf("fired = %v", p.fired)
	}
}

func TestDisabledSleeperParksUntilRescheduled(t *testing.T) {
	c := NewClock()
	p := &periodic{period: 3, enabled: false}
	c.Attach("p", p)
	c.Run(10)
	if p.ticks != 0 {
		t.Fatalf("disabled sleeper ticked %d times", p.ticks)
	}
	p.enabled = true
	p.waker.Reschedule(p.NextWake(c.Cycle()))
	c.Run(10) // cycles 10..19: grid hits 12, 15, 18
	if len(p.fired) != 3 || p.fired[0] != 12 {
		t.Fatalf("fired = %v, want [12 15 18]", p.fired)
	}
}

func TestSoloRescheduleLaterSleeperSameCycle(t *testing.T) {
	// A solo-running always-on ticker wakes a later-registered parked
	// sleeper mid-tick, targeting the *current* cycle. The dispatch loop
	// delivers that tick on the same cycle (it has not reached the
	// sleeper yet), so the solo fast path must finish the cycle
	// generically rather than deferring the wake by one cycle.
	run := func(scheduled bool) []uint64 {
		c := NewClock()
		c.SetWakeScheduling(scheduled)
		p := &periodic{period: 1, enabled: false}
		c.Attach("solo", TickerFunc(func(cy uint64) {
			switch cy {
			case 50:
				p.enabled = true
				p.waker.Reschedule(cy)
			case 60:
				p.enabled = false
			}
		}))
		c.Attach("p", p)
		c.Run(100)
		return p.fired
	}
	on, off := run(true), run(false)
	if len(off) == 0 || off[0] != 50 {
		t.Fatalf("always-on baseline fired %v, want first fire at 50", off)
	}
	if len(on) != len(off) {
		t.Fatalf("scheduler on fired %v, off fired %v", on, off)
	}
	for i := range on {
		if on[i] != off[i] {
			t.Fatalf("fire %d: on=%d off=%d", i, on[i], off[i])
		}
	}
}

func TestSoloRescheduleEarlierSleeperNextCycle(t *testing.T) {
	// Mirror case: the woken sleeper is registered *before* the solo
	// ticker, so the dispatch loop has already passed it and the tick lands
	// on the next cycle. The solo fast path must not deliver it early.
	run := func(scheduled bool) []uint64 {
		c := NewClock()
		c.SetWakeScheduling(scheduled)
		p := &periodic{period: 1, enabled: false}
		c.Attach("p", p)
		c.Attach("solo", TickerFunc(func(cy uint64) {
			switch cy {
			case 50:
				p.enabled = true
				p.waker.Reschedule(cy)
			case 60:
				p.enabled = false
			}
		}))
		c.Run(100)
		return p.fired
	}
	on, off := run(true), run(false)
	if len(off) == 0 || off[0] != 51 {
		t.Fatalf("always-on baseline fired %v, want first fire at 51", off)
	}
	if len(on) != len(off) {
		t.Fatalf("scheduler on fired %v, off fired %v", on, off)
	}
	for i := range on {
		if on[i] != off[i] {
			t.Fatalf("fire %d: on=%d off=%d", i, on[i], off[i])
		}
	}
}

func TestBulkSkipStopsAtRunBoundary(t *testing.T) {
	// A chunked caller (Session.Run polls every 4096 cycles) must see the
	// clock stop exactly at each chunk boundary even when the next wake is
	// far beyond it.
	c := NewClock()
	p := &periodic{period: 100000, offset: 99999, enabled: true}
	c.Attach("p", p)
	for i := 0; i < 10; i++ {
		c.Run(4096)
		if got, want := c.Cycle(), uint64(4096*(i+1)); got != want {
			t.Fatalf("after chunk %d cycle = %d, want %d", i, got, want)
		}
	}
	if p.ticks != 0 {
		t.Errorf("sleeper ticked %d times before wake", p.ticks)
	}
}
