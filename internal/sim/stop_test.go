package sim

import (
	"slices"
	"testing"

	"repro/internal/obs"
)

// stopper is a Sleeper due every cycle, the way a running CPU core is. It
// records its ticks and raises a stop on every cycle stopAt accepts.
type stopper struct {
	stopAt func(cycle uint64) bool
	ticks  []uint64
	w      *Waker
	onTick func(cycle uint64) // optional side effect before the stop check
}

func (s *stopper) Tick(cy uint64) {
	s.ticks = append(s.ticks, cy)
	if s.onTick != nil {
		s.onTick(cy)
	}
	if s.stopAt(cy) {
		s.w.Stop()
	}
}

func (s *stopper) NextWake(from uint64) uint64 { return from }
func (s *stopper) BindWake(w *Waker)           { s.w = w }

func stopAtCycle(at uint64) func(uint64) bool {
	return func(cy uint64) bool { return cy == at }
}

// stepUntil is the per-cycle reference a stop replaces: check a predicate
// at every cycle boundary, Step otherwise.
func stepUntil(c *Clock, done func() bool, limit uint64) (uint64, bool) {
	for n := uint64(0); n < limit; n++ {
		if done() {
			return n, true
		}
		c.Step()
	}
	return limit, done()
}

func TestStopInsideSoloRun(t *testing.T) {
	// The stopper is the solo runner (the periodic sleeper wakes far
	// later), so the stop must end the tight solo loop, not a dispatch.
	run := func(useStop bool) ([]uint64, uint64, bool, uint64) {
		c := NewClock()
		s := &stopper{stopAt: func(uint64) bool { return false }}
		c.Attach("cpu", s)
		p := &periodic{period: 10_000, offset: 9_999, enabled: true}
		c.Attach("p", p)
		var n uint64
		var ok bool
		if useStop {
			s.stopAt = stopAtCycle(137)
			n, ok = c.RunToStop(5000)
		} else {
			n, ok = stepUntil(c, func() bool { return len(s.ticks) > 0 && s.ticks[len(s.ticks)-1] == 137 }, 5000)
		}
		return s.ticks, n, ok, c.Cycle()
	}
	ticks, n, ok, cy := run(true)
	refTicks, refN, refOK, refCy := run(false)
	if n != 138 || !ok || cy != 138 {
		t.Fatalf("RunToStop = %d, %v at cycle %d; want 138, true at 138", n, ok, cy)
	}
	if n != refN || ok != refOK || cy != refCy || !slices.Equal(ticks, refTicks) {
		t.Fatalf("stop run (%d, %v, cycle %d, %d ticks) differs from the per-cycle reference (%d, %v, cycle %d, %d ticks)",
			n, ok, cy, len(ticks), refN, refOK, refCy, len(refTicks))
	}
}

func TestStopLetsLaterTickersFinishTheCycle(t *testing.T) {
	// The stop is raised by the first-registered ticker. Every ticker due
	// that cycle still ticks, and nothing ticks after: a parked sleeper
	// the stopping Tick itself wakes for the current cycle (alone, the
	// stopper is a solo runner and this is the solo run's resched path),
	// plus, in the busy variant, an always-on ticker and a sleeper whose
	// wake falls on the stop cycle (the dispatch path).
	for _, busy := range []bool{false, true} {
		for _, scheduled := range []bool{true, false} {
			c := NewClock()
			c.SetWakeScheduling(scheduled)
			woken := &periodic{period: 1, enabled: false}
			s := &stopper{stopAt: stopAtCycle(40), onTick: func(cy uint64) {
				if cy == 40 {
					woken.enabled = true
					woken.waker.Reschedule(cy)
				}
			}}
			c.Attach("cpu", s)
			due := &periodic{period: 20, enabled: true}
			var always []uint64
			if busy {
				c.Attach("due", due)
				c.Attach("always", TickerFunc(func(cy uint64) { always = append(always, cy) }))
			}
			c.Attach("woken", woken)
			n, ok := c.RunToStop(1000)
			if n != 41 || !ok || len(s.ticks) != 41 {
				t.Fatalf("busy=%v scheduled=%v: RunToStop = %d, %v after %d stopper ticks; want 41, true, 41",
					busy, scheduled, n, ok, len(s.ticks))
			}
			if !slices.Equal(woken.fired, []uint64{40}) {
				t.Errorf("busy=%v scheduled=%v: sleeper woken on the stop cycle fired %v, want [40]",
					busy, scheduled, woken.fired)
			}
			if !busy {
				continue
			}
			if !slices.Equal(due.fired, []uint64{0, 20, 40}) {
				t.Errorf("scheduled=%v: due sleeper fired %v, want [0 20 40]", scheduled, due.fired)
			}
			if len(always) != 41 || always[40] != 40 {
				t.Errorf("scheduled=%v: always-on ticker ran %d cycles, want 41 ending at 40", scheduled, len(always))
			}
		}
	}
}

func TestStopKeepsInstrumentedCadence(t *testing.T) {
	// Runs cut short by stops every 13 cycles sample the same cycles as
	// one straight run: the cadence is anchored to simulated cycles.
	const total = 2000
	sampled := func(stops bool) (uint64, uint64) {
		reg := obs.New()
		c := NewClock()
		c.Instrument(reg, 7)
		s := &stopper{stopAt: func(cy uint64) bool { return stops && cy%13 == 12 }}
		c.Attach("cpu", s)
		c.Attach("p", &periodic{period: 50, offset: 3, enabled: true})
		runs := 0
		for c.Cycle() < total {
			if runs++; runs > total {
				t.Fatal("runs stopped advancing: the stop latch was not cleared")
			}
			c.RunToStop(total - c.Cycle())
		}
		if stops && runs < total/13 {
			t.Fatalf("only %d runs: the stops did not end them", runs)
		}
		return reg.Counter("sim.sampled_cycles").Value(), uint64(len(s.ticks))
	}
	gotSampled, gotTicks := sampled(true)
	wantSampled, wantTicks := sampled(false)
	if gotSampled != wantSampled || gotTicks != wantTicks {
		t.Fatalf("with stops: %d sampled cycles, %d ticks; straight run: %d, %d",
			gotSampled, gotTicks, wantSampled, wantTicks)
	}
}

func TestStopLatchSurvivesChunkedRun(t *testing.T) {
	// A chunked caller (Session.Run polls every 4096 cycles) never runs
	// past a stop: every chunk after it executes nothing.
	c := NewClock()
	s := &stopper{stopAt: stopAtCycle(5000)}
	c.Attach("cpu", s)
	for i := 0; i < 5; i++ {
		c.Run(4096)
	}
	if c.Cycle() != 5001 || len(s.ticks) != 5001 {
		t.Fatalf("after chunks: cycle %d, %d ticks; want 5001, 5001", c.Cycle(), len(s.ticks))
	}
	// RunToStop reports the latched stop without running, then clears it.
	if n, ok := c.RunToStop(100); n != 0 || !ok {
		t.Fatalf("RunToStop on a latched stop = %d, %v; want 0, true", n, ok)
	}
	c.Run(10)
	if c.Cycle() != 5011 {
		t.Fatalf("after clearing: cycle %d, want 5011", c.Cycle())
	}
}

func TestStopRaisedBeforeRunGivesZeroCycles(t *testing.T) {
	// A watch already satisfied when armed stops the next run before its
	// first cycle.
	c := NewClock()
	s := &stopper{stopAt: func(uint64) bool { return false }}
	c.Attach("cpu", s)
	c.Run(3)
	s.w.Stop()
	if n, ok := c.RunToStop(100); n != 0 || !ok {
		t.Fatalf("RunToStop = %d, %v; want 0, true", n, ok)
	}
	if c.Cycle() != 3 || len(s.ticks) != 3 {
		t.Fatalf("cycle %d, %d ticks; want 3, 3", c.Cycle(), len(s.ticks))
	}
}

func TestRunToStopLimitReportsNotReached(t *testing.T) {
	c := NewClock()
	s := &stopper{stopAt: stopAtCycle(25)}
	c.Attach("cpu", s)
	if n, ok := c.RunToStop(25); n != 25 || ok {
		t.Fatalf("RunToStop(25) = %d, %v; want 25, false", n, ok)
	}
	// The stop lands in the next run's first cycle.
	if n, ok := c.RunToStop(25); n != 1 || !ok {
		t.Fatalf("second RunToStop = %d, %v; want 1, true", n, ok)
	}
}

func TestWakerStopNilSafe(t *testing.T) {
	var w *Waker
	w.Stop() // must not panic
}
