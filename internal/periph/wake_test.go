package periph

import (
	"testing"

	"repro/internal/bus"
	"repro/internal/irq"
	"repro/internal/sim"
)

// rd32 reads a 32-bit register through Access at the clock's current cycle.
func rd32(tgt bus.Target, addr uint32) uint32 {
	buf := make([]byte, 4)
	tgt.Access(0, &bus.Request{Addr: addr, Data: buf})
	return get32(buf)
}

func wr32(tgt bus.Target, addr uint32, v uint32) {
	buf := []byte{byte(v), byte(v >> 8), byte(v >> 16), byte(v >> 24)}
	tgt.Access(0, &bus.Request{Addr: addr, Data: buf, Write: true})
}

func TestTimerNextWakeGrid(t *testing.T) {
	r := irq.New()
	s := r.AddSRN("t0", 5, irq.ToCPU, 0)
	tm := NewTimer("t0", 0, 100, 30, r, s)
	cases := []struct{ from, want uint64 }{
		{0, 30}, {30, 30}, {31, 130}, {129, 130}, {130, 130}, {131, 230},
	}
	for _, c := range cases {
		if got := tm.NextWake(c.from); got != c.want {
			t.Errorf("NextWake(%d) = %d, want %d", c.from, got, c.want)
		}
	}
	tm.Enabled = false
	if got := tm.NextWake(0); got != sim.NoWake {
		t.Errorf("disabled NextWake = %d, want NoWake", got)
	}
}

// scheduledRig attaches periphs to a clock with the wake scheduler in the
// given mode and returns the clock.
func timerOnClock(scheduled bool, period, offset uint64) (*sim.Clock, *Timer) {
	r := irq.New()
	s := r.AddSRN("t0", 5, irq.ToCPU, 0)
	tm := NewTimer("t0", 0, period, offset, r, s)
	clk := sim.NewClock()
	if !scheduled {
		clk.SetWakeScheduling(false)
	}
	clk.Attach("drain", sim.TickerFunc(func(uint64) { r.View(irq.ToCPU).AckIRQ(5) }))
	clk.Attach("t0", tm)
	return clk, tm
}

func TestTimerScheduledMatchesAlwaysOn(t *testing.T) {
	clkOn, tmOn := timerOnClock(true, 100, 30)
	clkOff, tmOff := timerOnClock(false, 100, 30)
	clkOn.Run(10_000)
	clkOff.Run(10_000)
	if tmOn.Expiries != tmOff.Expiries {
		t.Errorf("expiries: scheduled=%d always-on=%d", tmOn.Expiries, tmOff.Expiries)
	}
	if on, off := rd32(tmOn, RegCount), rd32(tmOff, RegCount); on != off {
		t.Errorf("count: scheduled=%d always-on=%d", on, off)
	}
}

func TestTimerLazyCountAcrossSleep(t *testing.T) {
	clk, tm := timerOnClock(true, 1000, 999)
	clk.Run(500)
	// Mid-sleep: the timer has not been ticked once, but the free-running
	// count must read as if it had been.
	if got := rd32(tm, RegCount); got != 500 {
		t.Errorf("count mid-sleep = %d, want 500", got)
	}
	clk.Run(1000)
	if got := rd32(tm, RegCount); got != 1500 {
		t.Errorf("count after expiry = %d, want 1500", got)
	}
	if tm.Expiries != 1 {
		t.Errorf("expiries = %d, want 1", tm.Expiries)
	}
}

func TestTimerCtrlWriteReschedules(t *testing.T) {
	clk, tm := timerOnClock(true, 100, 0)
	clk.Run(150) // expiries at 0, 100
	wr32(tm, RegCtrl, 0)
	clk.Run(500) // disabled: parked, no expiries, count frozen
	frozen := rd32(tm, RegCount)
	wr32(tm, RegCtrl, 1)
	clk.Run(350) // re-enabled at 650: grid hits 700, 800, 900
	if tm.Expiries != 2+3 {
		t.Errorf("expiries = %d, want 5", tm.Expiries)
	}
	if got := rd32(tm, RegCount); got != frozen+350 {
		t.Errorf("count = %d, want %d (frozen %d + 350 enabled cycles)", got, frozen+350, frozen)
	}
}

func TestTimerPeriodWriteReschedules(t *testing.T) {
	clk, tm := timerOnClock(true, 10_000, 9_999)
	clk.Run(100)
	if tm.Expiries != 0 {
		t.Fatalf("expiries = %d before reprogram", tm.Expiries)
	}
	// Shrinking the period below the clamped offset exercises Tick's uint64
	// wraparound grid; the rescheduled wake must follow the same arithmetic.
	wr32(tm, RegPeriod, 50)
	before := tm.Expiries
	clkRef, tmRef := timerOnClock(false, 10_000, 9_999)
	clkRef.Run(100)
	wr32(tmRef, RegPeriod, 50)
	clk.Run(100)
	clkRef.Run(100)
	if tm.Expiries == before {
		t.Errorf("no expiries after reprogramming to a fast period")
	}
	if tm.Expiries != tmRef.Expiries {
		t.Errorf("expiries = %d scheduled, %d always-on", tm.Expiries, tmRef.Expiries)
	}
}

func TestTimerWrapGridBoundaryNotSkipped(t *testing.T) {
	// With offset >= period the fire grid changes regime at cycle
	// offset-period; the scheduled timer must fire there exactly like the
	// always-on one.
	run := func(scheduled bool) uint64 {
		clk, tm := timerOnClock(scheduled, 5_000, 4_000)
		wr32(tm, RegPeriod, 100) // offset 4000 now exceeds the period
		clk.Run(6_000)           // crosses the regime boundary at cycle 3900
		return tm.Expiries
	}
	on, off := run(true), run(false)
	if on != off || on == 0 {
		t.Errorf("expiries: scheduled=%d always-on=%d", on, off)
	}
}

func TestADCScheduledMatchesAlwaysOn(t *testing.T) {
	build := func(scheduled bool) (*sim.Clock, *ADC) {
		r := irq.New()
		s := r.AddSRN("adc", 6, irq.ToCPU, 0)
		sig := NewSignal(800, 6000, 1000, 20, sim.NewRNG(7))
		a := NewADC("adc", 0, 250, 13, sig, r, s)
		clk := sim.NewClock()
		if !scheduled {
			clk.SetWakeScheduling(false)
		}
		clk.Attach("drain", sim.TickerFunc(func(uint64) { r.View(irq.ToCPU).AckIRQ(6) }))
		clk.Attach("adc", a)
		return clk, a
	}
	clkOn, on := build(true)
	clkOff, off := build(false)
	var onResults, offResults []uint32
	for i := 0; i < 40; i++ {
		clkOn.Run(250)
		clkOff.Run(250)
		onResults = append(onResults, on.result)
		offResults = append(offResults, off.result)
	}
	if on.Conversions != off.Conversions {
		t.Fatalf("conversions: scheduled=%d always-on=%d", on.Conversions, off.Conversions)
	}
	for i := range onResults {
		if onResults[i] != offResults[i] {
			t.Fatalf("result %d: scheduled=%#x always-on=%#x", i, onResults[i], offResults[i])
		}
	}
}

func TestCANScheduledMatchesAlwaysOn(t *testing.T) {
	build := func(scheduled bool) (*sim.Clock, *CANNode) {
		r := irq.New()
		s := r.AddSRN("can", 7, irq.ToCPU, 0)
		c := NewCANNode("can", 0, 700, 4, sim.NewRNG(11), r, s)
		clk := sim.NewClock()
		if !scheduled {
			clk.SetWakeScheduling(false)
		}
		// Pop the FIFO every 500 cycles so arrivals keep flowing.
		clk.Attach("pop", sim.TickerFunc(func(cy uint64) {
			if cy%500 == 0 {
				buf := make([]byte, 4)
				c.Access(cy, &bus.Request{Addr: RegResult, Data: buf})
			}
			r.View(irq.ToCPU).AckIRQ(7)
		}))
		clk.Attach("can", c)
		return clk, c
	}
	clkOn, on := build(true)
	clkOff, off := build(false)
	clkOn.Run(100_000)
	clkOff.Run(100_000)
	if on.Received != off.Received || on.Dropped != off.Dropped {
		t.Errorf("scheduled rx=%d drop=%d, always-on rx=%d drop=%d",
			on.Received, on.Dropped, off.Received, off.Dropped)
	}
	if len(on.fifo) != len(off.fifo) {
		t.Errorf("fifo level: scheduled=%d always-on=%d", len(on.fifo), len(off.fifo))
	}
}

func TestFlexRayScheduledMatchesAlwaysOn(t *testing.T) {
	build := func(scheduled bool) (*sim.Clock, *FlexRayNode) {
		r := irq.New()
		s := r.AddSRN("fr", 8, irq.ToCPU, 0)
		f := NewFlexRay("fr", 0, 1000, 7, []int{1, 4}, 5, 8, sim.NewRNG(3), r, s)
		clk := sim.NewClock()
		if !scheduled {
			clk.SetWakeScheduling(false)
		}
		clk.Attach("pop", sim.TickerFunc(func(cy uint64) {
			if cy%300 == 0 {
				buf := make([]byte, 4)
				f.Access(cy, &bus.Request{Addr: RegResult, Data: buf})
			}
			if cy%2000 == 0 { // arm a TX frame now and then
				wr32(f, RegPeriod, uint32(cy))
			}
			r.View(irq.ToCPU).AckIRQ(8)
		}))
		clk.Attach("fr", f)
		return clk, f
	}
	clkOn, on := build(true)
	clkOff, off := build(false)
	clkOn.Run(50_000)
	clkOff.Run(50_000)
	if on.RxFrames != off.RxFrames || on.TxFrames != off.TxFrames || on.Dropped != off.Dropped {
		t.Errorf("scheduled rx=%d tx=%d drop=%d, always-on rx=%d tx=%d drop=%d",
			on.RxFrames, on.TxFrames, on.Dropped, off.RxFrames, off.TxFrames, off.Dropped)
	}
	if on.lastSlot != off.lastSlot {
		t.Errorf("lastSlot: scheduled=%d always-on=%d", on.lastSlot, off.lastSlot)
	}
}

func TestFlexRayNextWakeBoundaries(t *testing.T) {
	r := irq.New()
	s := r.AddSRN("fr", 8, irq.ToCPU, 0)
	// 10 cycles, 3 slots: boundaries at pos 0 (slot 0), 4 (slot 1), 7 (slot 2).
	f := NewFlexRay("fr", 0, 10, 3, nil, 0, 1, sim.NewRNG(1), r, s)
	f.lastSlot = 0
	if got := f.NextWake(1); got != 4 {
		t.Errorf("NextWake(1) = %d, want 4 (slot 1 start)", got)
	}
	f.lastSlot = 2
	if got := f.NextWake(8); got != 10 {
		t.Errorf("NextWake(8) = %d, want 10 (next comm cycle)", got)
	}
	f.lastSlot = 0
	if got := f.NextWake(4); got != 4 {
		t.Errorf("NextWake(4) = %d, want 4 (boundary not yet consumed)", got)
	}
}
