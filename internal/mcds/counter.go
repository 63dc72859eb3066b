package mcds

import (
	"fmt"

	"repro/internal/sim"
	"repro/internal/tmsg"
	"repro/internal/tricore"
)

// CounterMode selects what a counter structure does.
type CounterMode uint8

// Counter modes.
const (
	// ModeRate counts Src events against a Basis window of Resolution
	// basis events. At each window end it can emit a rate trace message
	// and/or compare the rate against a threshold, setting the Below or
	// Above signal. This is the Enhanced System Profiling measurement
	// element: "Every x clock cycles, the number of executed instructions
	// is saved as a trace message ... where x is the resolution."
	ModeRate CounterMode = iota
	// ModeWatchdog fires the Above signal when Resolution basis events
	// elapse without a single Src event — the paper's "trigger on events
	// not happening in a defined time window".
	ModeWatchdog
)

// Counter is one MCDS counter structure.
type Counter struct {
	Name string
	ID   uint8 // counter id carried in rate messages
	Mode CounterMode

	Src   Tap // measured event
	Basis Tap // resolution basis (EvInstrExecuted for event rates, EvCycle for IPC)

	Resolution uint64 // basis events per window (> 0); see SetResolution

	// Emit controls rate-message emission at window end (ModeRate).
	Emit bool

	// Threshold compares the window rate against Num/Den at window end:
	// count*Den < basis*Num sets Below, otherwise Above (when the signals
	// are allocated). Integer rational avoids floating point in the
	// "hardware".
	ThreshNum, ThreshDen uint64
	Below, Above         Signal

	// EmitTriggerOnFire emits a trigger message when the watchdog fires.
	EmitTriggerOnFire bool
	TriggerID         uint8

	// TrackExtremes records the highest and lowest completed-window rates
	// in hardware capture registers (read back after the run without any
	// trace bandwidth — the cheapest possible worst-case observation).
	TrackExtremes bool
	MaxCount      uint64 // count of the worst (highest-count) window
	MaxBasis      uint64
	MinCount      uint64 // count of the best (lowest-count) window
	MinBasis      uint64
	haveExtremes  bool

	off bool // disarmed (SetEnabled); trigger actions flip it: the cascade

	// The running window holds winCount/winBasis plus, while armed, the
	// tapped words' progress since srcStart/basisStart. A watchdog counts
	// silent cycles in winBasis and keeps srcStart at the last tick's value.
	m                    *MCDS
	srcW, basisW         int // indices into m.words
	srcStart, basisStart uint64
	winCount, winBasis   uint64
	total                uint64 // source events outside the running window

	// Statistics.
	Windows uint64
	Fires   uint64 // watchdog firings / threshold-below windows
}

// word is one tapped event word: its value at the last MCDS tick (what
// register accesses between ticks see), the value from which a counter
// tapping it is due a visit (a lower bound: early visits are harmless),
// and the most it can rise in one cycle (0: unknown).
type word struct {
	p               *uint64
	last, due, rise uint64
}

// maxRise bounds the per-cycle rise of event e's word: a core counts one
// EvCycle per tick and retires at most tricore.MaxIssueWidth instructions
// per cycle. No other event has a proven bound.
func maxRise(e sim.Event) uint64 {
	switch e {
	case sim.EvCycle:
		return 1
	case sim.EvInstrExecuted:
		return tricore.MaxIssueWidth
	}
	return 0
}

// NewRateCounter builds a rate counter measuring src per resolution basis
// events, with rate-message emission enabled and no threshold signals.
func NewRateCounter(name string, id uint8, src, basis Tap, resolution uint64) *Counter {
	return &Counter{Name: name, ID: id, Mode: ModeRate, Src: src, Basis: basis,
		Resolution: resolution, Emit: true, Below: NoSignal, Above: NoSignal}
}

// NewWatchdog builds a watchdog counter firing signal fire when window
// cycles pass without a src event.
func NewWatchdog(name string, id uint8, src Tap, window uint64, fire Signal) *Counter {
	return &Counter{Name: name, ID: id, Mode: ModeWatchdog, Src: src,
		Resolution: window, Below: NoSignal, Above: fire}
}

// AddCounter registers a counter structure, resolving each tap once to the
// word it reads; the counter counts from now on. Unused threshold signals
// must be NoSignal (the constructors take care of this).
func (m *MCDS) AddCounter(c *Counter) *Counter {
	if c.Resolution == 0 {
		panic(fmt.Sprintf("mcds: counter %s has zero resolution", c.Name))
	}
	if c.Src.Obs == nil {
		panic(fmt.Sprintf("mcds: counter %s has no source tap", c.Name))
	}
	if c.Mode == ModeRate && c.Basis.Obs == nil {
		panic(fmt.Sprintf("mcds: rate counter %s has no basis tap", c.Name))
	}
	c.m, c.srcW = m, m.tap(c.Src)
	if c.Mode == ModeRate {
		c.basisW = m.tap(c.Basis)
	} else {
		m.watchdogs = append(m.watchdogs, c)
		m.pin()
	}
	c.rebase()
	m.counters = append(m.counters, c)
	m.rearm()
	return c
}

// tap returns the index of the word t reads, adding it on first use.
func (m *MCDS) tap(t Tap) int {
	p := &t.Obs.Counters()[t.Event]
	for i := range m.words {
		if m.words[i].p == p {
			return i
		}
	}
	m.words = append(m.words, word{p: p, last: *p, due: ^uint64(0), rise: maxRise(t.Event)})
	return len(m.words) - 1
}

// rearm re-arms the due values and reschedules the MCDS on them.
func (m *MCDS) rearm() {
	m.arm()
	m.poke()
}

// arm recomputes each word's due value, the earliest window end of the
// armed rate counters it is the basis of, and collects the words that
// have one.
func (m *MCDS) arm() {
	for i := range m.words {
		m.words[i].due = ^uint64(0)
	}
	for _, c := range m.counters {
		if c.Mode == ModeRate && !c.off {
			w := &m.words[c.basisW]
			w.due = min(w.due, c.basisStart-c.winBasis+c.Resolution)
		}
	}
	m.bases = m.bases[:0]
	for i := range m.words {
		if m.words[i].due != ^uint64(0) {
			m.bases = append(m.bases, i)
		}
	}
}

// Enabled reports whether the counter is armed.
func (c *Counter) Enabled() bool { return !c.off }

// SetEnabled arms or disarms the counter from the next MCDS tick on.
// Disarming holds the running window and re-arming resumes it; trigger
// actions and the control register also Reset it.
func (c *Counter) SetEnabled(on bool) {
	if on == !c.off {
		return
	}
	c.winCount, c.winBasis = c.window()
	c.off = !on
	if c.m != nil {
		c.rebase()
		c.m.rearm()
	}
}

// SetResolution changes the window length, the running window's included
// (the degradation controller widens and restores it mid-window).
func (c *Counter) SetResolution(r uint64) {
	c.Resolution = r
	if c.m != nil {
		c.m.rearm()
	}
}

// Reset clears the running window: a window close, or a cascade re-arming
// the counter.
func (c *Counter) Reset() {
	c.restart()
	if c.m != nil {
		c.m.rearm()
	}
}

// restart clears the running window without re-arming the due values
// (a tick closing windows re-arms once after visiting every counter).
func (c *Counter) restart() {
	count, _ := c.window()
	c.total += count
	c.winCount, c.winBasis = 0, 0
	if c.m != nil {
		c.rebase()
	}
}

// refresh brings the counter's two words up to date on a lazy MCDS.
func (c *Counter) refresh() {
	if m := c.m; m.lazy() {
		s, b := &m.words[c.srcW], &m.words[c.basisW]
		s.last, b.last = *s.p, *b.p
	}
}

// rebase starts the tapped words' progress at the last tick.
func (c *Counter) rebase() {
	c.refresh()
	c.srcStart, c.basisStart = c.m.words[c.srcW].last, c.m.words[c.basisW].last
}

// window returns the running window's counts as of the last MCDS tick.
func (c *Counter) window() (count, basis uint64) {
	if c.off || c.m == nil || c.Mode == ModeWatchdog {
		return c.winCount, c.winBasis
	}
	c.refresh()
	return c.winCount + c.m.words[c.srcW].last - c.srcStart,
		c.winBasis + c.m.words[c.basisW].last - c.basisStart
}

// TotalSrc returns the source events counted while armed, as of the last
// MCDS tick.
func (c *Counter) TotalSrc() uint64 {
	count, _ := c.window()
	return c.total + count
}

// updateExtremes folds a completed window into the min/max capture
// registers (rate comparison via cross-multiplication: no floating point
// in the "hardware").
func (c *Counter) updateExtremes(count, basis uint64) {
	if !c.haveExtremes {
		c.MaxCount, c.MaxBasis = count, basis
		c.MinCount, c.MinBasis = count, basis
		c.haveExtremes = true
		return
	}
	if count*c.MaxBasis > c.MaxCount*basis {
		c.MaxCount, c.MaxBasis = count, basis
	}
	if count*c.MinBasis < c.MinCount*basis {
		c.MinCount, c.MinBasis = count, basis
	}
}

// tick visits the counter: a watchdog steps its silence count, a rate
// counter closes its window once the basis reached the resolution.
func (c *Counter) tick(m *MCDS, cycle uint64) {
	if c.off {
		return
	}
	src := m.words[c.srcW].last
	switch c.Mode {
	case ModeRate:
		count, basis := c.window()
		if basis < c.Resolution {
			return
		}
		c.restart()
		c.Windows++
		if c.TrackExtremes {
			c.updateExtremes(count, basis)
		}
		if c.Emit {
			msg := tmsg.Msg{Kind: tmsg.KindRate, Src: c.Src.Obs.SrcID(),
				Cycle: cycle, CounterID: c.ID, Basis: basis, Count: count}
			m.emit(&msg)
		}
		if c.ThreshDen > 0 {
			if count*c.ThreshDen < basis*c.ThreshNum {
				m.set(c.Below)
				c.Fires++
			} else {
				m.set(c.Above)
			}
		}

	case ModeWatchdog:
		if src != c.srcStart {
			c.total += src - c.srcStart
			c.srcStart = src
			c.winBasis = 0
			return
		}
		c.winBasis++
		if c.winBasis >= c.Resolution {
			c.Fires++
			m.set(c.Above)
			if c.EmitTriggerOnFire {
				msg := tmsg.Msg{Kind: tmsg.KindTrigger, Src: c.Src.Obs.SrcID(),
					Cycle: cycle, TriggerID: c.TriggerID}
				m.emit(&msg)
			}
			c.winBasis = 0
		}
	}
}
