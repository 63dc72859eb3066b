package sim

import (
	"slices"
	"testing"

	"repro/internal/obs"
)

// The FuzzClockDispatch rig: every component logs its work events — a
// Tick on a cycle where it has work — into one shared log as
// cycle<<8 | id. Sleepers are ticked less often with wake scheduling on,
// but their work events must not move; idle counts the Sleepers' Ticks
// without work, which wake scheduling must not deliver.
type rig struct {
	log      []uint64
	idle     int
	lastStop uint64
	stops    int // stops raised so far
}

func (r *rig) work(cy uint64, id int) { r.log = append(r.log, cy<<8|uint64(id)) }

// onGrid reports whether cy ≡ offset (mod period).
func onGrid(cy, period, offset uint64) bool { return cy%period == offset }

// gridWake returns the first cycle >= from on the grid.
func gridWake(from, period, offset uint64) uint64 {
	w := from - from%period + offset
	if w < from {
		w += period
	}
	return w
}

// gridSleeper works on its grid cycles; then it posts to a mailbox
// and/or raises a stop when those are set.
type gridSleeper struct {
	r              *rig
	id             int
	period, offset uint64
	post           *mailbox
	delay          uint64
	stop           bool
	w              *Waker
}

func (g *gridSleeper) Tick(cy uint64) {
	if !onGrid(cy, g.period, g.offset) {
		g.r.idle++
		return
	}
	g.r.work(cy, g.id)
	if g.post != nil {
		g.post.deliver(cy + g.delay)
	}
	if g.stop {
		g.r.lastStop, g.r.stops = cy, g.r.stops+1
		g.w.Stop()
	}
}

func (g *gridSleeper) NextWake(from uint64) uint64 { return gridWake(from, g.period, g.offset) }
func (g *gridSleeper) BindWake(w *Waker)           { g.w = w }

// mailbox is a Sleeper parked until another component posts to it: it
// works on the first Tick at or after the posted cycle.
type mailbox struct {
	r       *rig
	id      int
	due     uint64
	pending bool
	w       *Waker
}

func (m *mailbox) deliver(due uint64) {
	m.due, m.pending = due, true
	m.w.Reschedule(due)
}

func (m *mailbox) Tick(cy uint64) {
	if !m.pending || cy < m.due {
		m.r.idle++
		return
	}
	m.r.work(cy, m.id)
	m.pending = false
}

func (m *mailbox) NextWake(from uint64) uint64 {
	if !m.pending {
		return NoWake
	}
	return max(m.due, from)
}

func (m *mailbox) BindWake(w *Waker) { m.w = w }

// alwaysOn ticks every cycle and works on its grid. It implements
// WakeBinder but not Sleeper: it may raise a stop, and it asks to be
// parked on every Tick, which must not park it.
type alwaysOn struct {
	r              *rig
	id             int
	period, offset uint64
	stop           bool
	w              *Waker
}

func (a *alwaysOn) Tick(cy uint64) {
	a.w.Reschedule(cy + 10)
	if !onGrid(cy, a.period, a.offset) {
		return
	}
	a.r.work(cy, a.id)
	if a.stop {
		a.r.lastStop, a.r.stops = cy, a.r.stops+1
		a.w.Stop()
	}
}

func (a *alwaysOn) BindWake(w *Waker) { a.w = w }

func TestRescheduleLeavesAlwaysOnTickerDue(t *testing.T) {
	// The Sleeper attached beside it turns wake scheduling on.
	c := NewClock()
	c.Attach("p", &periodic{period: 7, enabled: true})
	r := &rig{}
	c.Attach("on", &alwaysOn{r: r, period: 1})
	c.Run(100)
	if len(r.log) != 100 {
		t.Fatalf("always-on ticker ran %d of 100 cycles", len(r.log))
	}
}

// buildRig attaches the components spec describes, three bytes each
// (kind, then two parameters), at most eight of them:
//
//	kind 0: an always-on ticker, working every b1%16+1 cycles;
//	kind 1: a periodic Sleeper, period b1+1 (×64 when b2 ≥ 128);
//	kind 2: a periodic Sleeper that posts to a mailbox registered before
//	        it (b2 odd) or after it, for the current cycle plus b2/2%4;
//	kind 3: a ticker that raises a stop on its grid, period b1+17 — a
//	        Sleeper when b2 is odd, always-on otherwise.
func buildRig(c *Clock, spec []byte) *rig {
	r := &rig{}
	id := 0
	next := func() int { id++; return id }
	for k := 0; k+3 <= len(spec) && k < 3*8; k += 3 {
		b1, b2 := uint64(spec[k+1]), uint64(spec[k+2])
		switch spec[k] % 4 {
		case 0:
			p := b1%16 + 1
			c.Attach("on", &alwaysOn{r: r, id: next(), period: p, offset: b2 % p})
		case 1:
			p := b1 + 1
			if b2 >= 128 {
				p *= 64
			}
			c.Attach("grid", &gridSleeper{r: r, id: next(), period: p, offset: b2 % p})
		case 2:
			p := b1%32 + 1
			m := &mailbox{r: r, id: next()}
			g := &gridSleeper{r: r, id: next(), period: p, offset: b2 % p, post: m, delay: b2 / 2 % 4}
			if b2%2 == 1 {
				c.Attach("mailbox", m)
				c.Attach("poster", g)
			} else {
				c.Attach("poster", g)
				c.Attach("mailbox", m)
			}
		case 3:
			p := b1 + 17
			if b2%2 == 1 {
				c.Attach("stop", &gridSleeper{r: r, id: next(), period: p, offset: b2 % p, stop: true})
			} else {
				c.Attach("stop", &alwaysOn{r: r, id: next(), period: p, offset: b2 % p, stop: true})
			}
		}
	}
	return r
}

// FuzzClockDispatch runs one component set on every dispatch path — wake
// scheduling on and off, instrumented with a small sample period and
// plain, one Run against 4096-cycle chunks against a Step per cycle — and
// requires the same work events from all of them.
func FuzzClockDispatch(f *testing.F) {
	f.Add([]byte{0, 3, 1, 1, 9, 4}, uint16(500), uint8(3))
	// Every component sleeps for long spans: the solo-run scan skips them.
	f.Add([]byte{1, 200, 130, 1, 90, 200}, uint16(9000), uint8(5))
	f.Add([]byte{1, 250, 255}, uint16(20000), uint8(7))
	f.Add([]byte{}, uint16(100), uint8(2))
	// Mailboxes registered before and after their poster, posted for the
	// current cycle and later ones, beside sleeping components.
	f.Add([]byte{2, 4, 1, 2, 6, 0, 1, 120, 200}, uint16(6000), uint8(4))
	f.Add([]byte{2, 0, 7, 2, 2, 6}, uint16(700), uint8(1))
	// Stops from a Sleeper and from an always-on ticker.
	f.Add([]byte{3, 3, 1, 1, 7, 2}, uint16(5000), uint8(3))
	f.Add([]byte{3, 0, 4, 0, 2, 1, 2, 5, 3}, uint16(4500), uint8(6))
	// An always-on stopper running solo between a Sleeper's wakes.
	f.Add([]byte{3, 3, 0, 1, 90, 200}, uint16(3000), uint8(8))
	f.Fuzz(func(t *testing.T, spec []byte, total16 uint16, sample uint8) {
		total := uint64(total16)
		sampleEvery := uint64(sample%8) + 1
		type run struct {
			scheduled, timed bool
			drive            string
		}
		var want []uint64
		for _, cfg := range []run{
			{false, false, "step"}, // the reference: every ticker, every cycle
			{false, false, "run"}, {false, false, "chunks"},
			{false, true, "run"}, {false, true, "chunks"}, {false, true, "step"},
			{true, false, "run"}, {true, false, "chunks"}, {true, false, "step"},
			{true, true, "run"}, {true, true, "chunks"}, {true, true, "step"},
		} {
			c := NewClock()
			c.SetWakeScheduling(cfg.scheduled)
			reg := obs.New()
			if cfg.timed {
				c.Instrument(reg, sampleEvery)
			}
			r := buildRig(c, spec)
			chunk := total
			if cfg.drive == "chunks" {
				chunk = 4096
			}
			for c.Cycle() < total {
				if cfg.drive == "step" {
					c.Step()
					continue
				}
				stops := r.stops
				_, stopped := c.RunToStop(min(chunk, total-c.Cycle()))
				if stopped != (r.stops > stops) {
					t.Fatalf("%+v: RunToStop reported stop=%v after %d stops raised", cfg, stopped, r.stops-stops)
				}
				if stopped && r.lastStop != c.Cycle()-1 {
					t.Fatalf("%+v: stop raised on cycle %d ended the run at %d", cfg, r.lastStop, c.Cycle())
				}
			}
			if cfg.scheduled && r.idle != 0 {
				t.Fatalf("%+v: %d Sleeper ticks off their wake cycles", cfg, r.idle)
			}
			if c.Cycle() != total {
				t.Fatalf("%+v: clock at cycle %d, want %d", cfg, c.Cycle(), total)
			}
			if cfg.timed {
				// Timed cycles are anchored to simulated cycles, not to
				// dispatches: every sampleEvery-th cycle from 0.
				if got, want := reg.Counter("sim.sampled_cycles").Value(), (total+sampleEvery-1)/sampleEvery; got != want {
					t.Fatalf("%+v: %d sampled cycles, want %d", cfg, got, want)
				}
			}
			if want == nil {
				want = append([]uint64{}, r.log...)
				continue
			}
			if !slices.Equal(r.log, want) {
				t.Fatalf("%+v: %d work events differ from the reference's %d", cfg, len(r.log), len(want))
			}
		}
	})
}
