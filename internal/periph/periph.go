// Package periph models the peripherals that make the workload hard
// real-time: general-purpose timers, an ADC producing converted analog
// inputs from synthetic signals, and a CAN-like message node. All
// processing in the generated customer applications is triggered by these
// sources, matching the paper's characterization of automotive systems
// ("processing activities are triggered by interrupts or at least are
// dependant on real-time data like converted analog inputs").
package periph

import (
	"repro/internal/bus"
	"repro/internal/irq"
	"repro/internal/sim"
)

// Register offsets shared by the peripheral models.
const (
	RegCtrl   = 0x00 // bit0: enable
	RegPeriod = 0x04
	RegCount  = 0x08
	RegResult = 0x0C // ADC result / CAN data
	RegStatus = 0x10 // CAN fifo level / ADC done flag
	RegID     = 0x14 // CAN message id
	RegSize   = 0x20 // register window size per peripheral
)

// nextOnGrid returns the earliest cycle >= from on the periodic grid the
// tickers fire on: cycles where (c+period-offset)%period == 0, evaluated in
// uint64 arithmetic exactly as Tick evaluates it. When offset >= period
// (possible after a RegPeriod write shrinks the period below a previously
// clamped offset) that expression wraps below zero for c < offset-period,
// so the grid has two regimes; the boundary cycle offset-period always
// fires and must not be skipped over.
func nextOnGrid(from, period, offset uint64) uint64 {
	next := from + (period-(from+period-offset)%period)%period
	if offset >= period {
		if b := offset - period; b >= from && b < next {
			next = b
		}
	}
	return next
}

// Timer raises its SRN every Period cycles while enabled.
//
// The timer is a sim.Sleeper: between expiries its Tick is never called,
// so the free-running count register is kept lazily — count holds the
// enabled cycles accounted through cycle doneC-1 and the remainder is
// reconstructed from the clock on demand. The arithmetic assumes Tick
// cycles are non-decreasing (true under a clock, and for every direct-Tick
// test that steps from the cycle the timer last saw).
type Timer struct {
	Label   string
	Base    uint32
	Period  uint64
	Offset  uint64 // phase shift of the first expiry
	Enabled bool

	router *irq.Router
	srn    *irq.SRN
	waker  *sim.Waker
	count  uint64 // enabled cycles accounted through doneC-1
	doneC  uint64 // first cycle not yet accounted into count

	Expiries uint64
}

// NewTimer creates a timer bound to srn.
func NewTimer(name string, base uint32, period, offset uint64, router *irq.Router, srn *irq.SRN) *Timer {
	if period == 0 {
		panic("periph: timer period must be > 0")
	}
	return &Timer{Label: name, Base: base, Period: period, Offset: offset % period,
		Enabled: true, router: router, srn: srn}
}

// Name implements bus.Target.
func (t *Timer) Name() string { return t.Label }

// BindWake implements sim.WakeBinder: register writes reschedule the
// timer, so it needs its clock handle.
func (t *Timer) BindWake(w *sim.Waker) { t.waker = w }

// NextWake implements sim.Sleeper: the next expiry on the period grid.
func (t *Timer) NextWake(from uint64) uint64 {
	if !t.Enabled {
		return sim.NoWake
	}
	return nextOnGrid(from, t.Period, t.Offset)
}

// Tick implements sim.Ticker.
func (t *Timer) Tick(cycle uint64) {
	if !t.Enabled {
		return
	}
	t.count += cycle + 1 - t.doneC
	t.doneC = cycle + 1
	if (cycle+t.Period-t.Offset)%t.Period == 0 {
		t.Expiries++
		t.router.Request(t.srn)
	}
}

// syncCount folds the cycles the (possibly sleeping) timer has not been
// ticked for into count, up to but excluding the clock's current cycle —
// the current cycle's own tick, if any, still runs after the bus masters.
func (t *Timer) syncCount() {
	cur := t.waker.Cycle()
	if cur <= t.doneC {
		return
	}
	if t.Enabled {
		t.count += cur - t.doneC
	}
	t.doneC = cur
}

// Access implements bus.Target (control/status registers).
func (t *Timer) Access(_ uint64, req *bus.Request) uint64 {
	off := req.Addr - t.Base
	switch off {
	case RegCtrl:
		if req.Write {
			t.syncCount()
			t.Enabled = req.Data[0]&1 != 0
			t.waker.Reschedule(t.NextWake(t.waker.Cycle()))
		} else {
			put32(req.Data, b2u(t.Enabled))
		}
	case RegPeriod:
		if req.Write {
			if v := get32(req.Data); v > 0 {
				t.Period = uint64(v)
				t.waker.Reschedule(t.NextWake(t.waker.Cycle()))
			}
		} else {
			put32(req.Data, uint32(t.Period))
		}
	case RegCount:
		if !req.Write {
			t.syncCount()
			put32(req.Data, uint32(t.count))
		}
	default:
		if !req.Write {
			zero(req.Data)
		}
	}
	return 1
}

// Signal produces deterministic synthetic sensor values. It is an integer
// triangle wave plus bounded pseudo-random jitter — engine-speed-like but
// reproducible bit-for-bit across platforms (no floating point).
type Signal struct {
	Min, Max  uint32
	PeriodUS  uint64 // triangle period in sample counts
	JitterPct int    // 0..100
	rng       *sim.RNG
	n         uint64
}

// NewSignal creates a signal source.
func NewSignal(min, max uint32, period uint64, jitterPct int, rng *sim.RNG) *Signal {
	if max < min || period == 0 {
		panic("periph: bad signal parameters")
	}
	return &Signal{Min: min, Max: max, PeriodUS: period, JitterPct: jitterPct, rng: rng}
}

// Next returns the next sample.
func (s *Signal) Next() uint32 {
	span := uint64(s.Max - s.Min)
	if span == 0 {
		return s.Min
	}
	ph := s.n % s.PeriodUS
	s.n++
	half := s.PeriodUS / 2
	var frac uint64
	if ph < half {
		frac = ph * span / half
	} else {
		frac = (s.PeriodUS - ph) * span / half
	}
	v := uint64(s.Min) + frac
	if s.JitterPct > 0 {
		j := span * uint64(s.JitterPct) / 100
		if j > 0 {
			v += uint64(s.rng.Intn(int(2*j+1))) - j
		}
	}
	if v < uint64(s.Min) {
		v = uint64(s.Min)
	}
	if v > uint64(s.Max) {
		v = uint64(s.Max)
	}
	return uint32(v)
}

// ADC converts one sample every Period cycles and raises its SRN when the
// result register is updated.
type ADC struct {
	Label   string
	Base    uint32
	Period  uint64
	Offset  uint64
	Enabled bool

	signal *Signal
	router *irq.Router
	srn    *irq.SRN
	waker  *sim.Waker

	result uint32
	done   bool

	Conversions uint64
}

// NewADC creates an ADC sampling signal every period cycles.
func NewADC(name string, base uint32, period, offset uint64, signal *Signal, router *irq.Router, srn *irq.SRN) *ADC {
	if period == 0 {
		panic("periph: adc period must be > 0")
	}
	return &ADC{Label: name, Base: base, Period: period, Offset: offset % period,
		Enabled: true, signal: signal, router: router, srn: srn}
}

// Name implements bus.Target.
func (a *ADC) Name() string { return a.Label }

// BindWake implements sim.WakeBinder.
func (a *ADC) BindWake(w *sim.Waker) { a.waker = w }

// NextWake implements sim.Sleeper: the next conversion on the period grid.
// The signal's RNG only advances on conversion cycles, so sleeping between
// them draws the exact same jitter sequence as ticking every cycle.
func (a *ADC) NextWake(from uint64) uint64 {
	if !a.Enabled {
		return sim.NoWake
	}
	return nextOnGrid(from, a.Period, a.Offset)
}

// Tick implements sim.Ticker.
func (a *ADC) Tick(cycle uint64) {
	if !a.Enabled {
		return
	}
	if (cycle+a.Period-a.Offset)%a.Period == 0 {
		a.result = a.signal.Next()
		a.done = true
		a.Conversions++
		a.router.Request(a.srn)
	}
}

// Access implements bus.Target.
func (a *ADC) Access(_ uint64, req *bus.Request) uint64 {
	off := req.Addr - a.Base
	switch off {
	case RegCtrl:
		if req.Write {
			a.Enabled = req.Data[0]&1 != 0
			a.waker.Reschedule(a.NextWake(a.waker.Cycle()))
		} else {
			put32(req.Data, b2u(a.Enabled))
		}
	case RegResult:
		if !req.Write {
			put32(req.Data, a.result)
			a.done = false
		}
	case RegStatus:
		if !req.Write {
			put32(req.Data, b2u(a.done))
		}
	default:
		if !req.Write {
			zero(req.Data)
		}
	}
	return 1
}

// CANMsg is one received message.
type CANMsg struct {
	ID   uint32
	Data uint32
}

// CANNode receives messages on a deterministic pseudo-random schedule into
// a FIFO and raises its SRN per message. A full FIFO drops the message.
type CANNode struct {
	Label     string
	Base      uint32
	MeanGap   uint64 // average cycles between messages
	FIFODepth int
	Enabled   bool

	rng    *sim.RNG
	router *irq.Router
	srn    *irq.SRN

	fifo    []CANMsg
	nextArr uint64

	Received uint64
	Dropped  uint64
}

// NewCANNode creates a CAN-like receiver.
func NewCANNode(name string, base uint32, meanGap uint64, depth int, rng *sim.RNG, router *irq.Router, srn *irq.SRN) *CANNode {
	if meanGap == 0 || depth <= 0 {
		panic("periph: bad CAN parameters")
	}
	c := &CANNode{Label: name, Base: base, MeanGap: meanGap, FIFODepth: depth,
		Enabled: true, rng: rng, router: router, srn: srn}
	c.scheduleNext(0)
	return c
}

// Name implements bus.Target.
func (c *CANNode) Name() string { return c.Label }

// NextWake implements sim.Sleeper: the pre-drawn arrival cycle. The RNG
// advances only when an arrival is processed, so the schedule is identical
// whether or not the idle cycles in between are dispatched.
func (c *CANNode) NextWake(from uint64) uint64 {
	if !c.Enabled {
		return sim.NoWake
	}
	if c.nextArr < from {
		return from
	}
	return c.nextArr
}

func (c *CANNode) scheduleNext(now uint64) {
	// Uniform gap in [MeanGap/2, 3*MeanGap/2]: bounded jitter, mean MeanGap.
	gap := c.MeanGap/2 + uint64(c.rng.Intn(int(c.MeanGap)+1))
	if gap == 0 {
		gap = 1
	}
	c.nextArr = now + gap
}

// Tick implements sim.Ticker.
func (c *CANNode) Tick(cycle uint64) {
	if !c.Enabled || cycle < c.nextArr {
		return
	}
	msg := CANMsg{ID: uint32(0x100 + c.rng.Intn(32)), Data: uint32(c.rng.Uint64())}
	if len(c.fifo) >= c.FIFODepth {
		c.Dropped++
	} else {
		c.fifo = append(c.fifo, msg)
		c.Received++
		c.router.Request(c.srn)
	}
	c.scheduleNext(cycle)
}

// Access implements bus.Target. Reading RegResult pops the FIFO head data;
// RegID reads its id without popping; RegStatus reads the fill level.
func (c *CANNode) Access(_ uint64, req *bus.Request) uint64 {
	off := req.Addr - c.Base
	switch off {
	case RegStatus:
		if !req.Write {
			put32(req.Data, uint32(len(c.fifo)))
		}
	case RegID:
		if !req.Write {
			if len(c.fifo) > 0 {
				put32(req.Data, c.fifo[0].ID)
			} else {
				zero(req.Data)
			}
		}
	case RegResult:
		if !req.Write {
			if len(c.fifo) > 0 {
				put32(req.Data, c.fifo[0].Data)
				c.fifo = c.fifo[1:]
			} else {
				zero(req.Data)
			}
		}
	default:
		if !req.Write {
			zero(req.Data)
		}
	}
	return 2
}

func put32(p []byte, v uint32) {
	for i := range p {
		p[i] = byte(v >> (8 * uint(i)))
	}
}

func get32(p []byte) uint32 {
	var v uint32
	for i := range p {
		v |= uint32(p[i]) << (8 * uint(i))
	}
	return v
}

func zero(p []byte) {
	for i := range p {
		p[i] = 0
	}
}

func b2u(b bool) uint32 {
	if b {
		return 1
	}
	return 0
}
