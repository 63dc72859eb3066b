package periph

import (
	"testing"

	"repro/internal/bus"
	"repro/internal/irq"
	"repro/internal/sim"
)

func TestTimerPeriodicRequests(t *testing.T) {
	r := irq.New()
	s := r.AddSRN("t0", 5, irq.ToCPU, 0)
	tm := NewTimer("t0", 0xF000_0000, 100, 0, r, s)
	for cy := uint64(0); cy < 1000; cy++ {
		tm.Tick(cy)
		// Drain so collapse does not hide expiries.
		r.View(irq.ToCPU).AckIRQ(5)
	}
	if tm.Expiries != 10 {
		t.Errorf("expiries = %d, want 10", tm.Expiries)
	}
	if s.Requests != 10 {
		t.Errorf("requests = %d, want 10", s.Requests)
	}
}

func TestTimerOffsetPhase(t *testing.T) {
	r := irq.New()
	s := r.AddSRN("t0", 5, irq.ToCPU, 0)
	tm := NewTimer("t0", 0, 100, 30, r, s)
	var first uint64
	for cy := uint64(0); cy < 200; cy++ {
		tm.Tick(cy)
		if s.Requests > 0 && first == 0 {
			first = cy
			break
		}
	}
	if first != 30 {
		t.Errorf("first expiry at %d, want 30", first)
	}
}

func TestTimerRegisters(t *testing.T) {
	r := irq.New()
	s := r.AddSRN("t0", 5, irq.ToCPU, 0)
	tm := NewTimer("t0", 0xF000_0000, 100, 0, r, s)
	// Disable via CTRL.
	tm.Access(0, &bus.Request{Addr: 0xF000_0000 + RegCtrl, Data: []byte{0, 0, 0, 0}, Write: true})
	if tm.Enabled {
		t.Error("CTRL write must disable")
	}
	// Change period.
	tm.Access(0, &bus.Request{Addr: 0xF000_0000 + RegPeriod, Data: []byte{50, 0, 0, 0}, Write: true})
	if tm.Period != 50 {
		t.Errorf("period = %d, want 50", tm.Period)
	}
	buf := make([]byte, 4)
	tm.Access(0, &bus.Request{Addr: 0xF000_0000 + RegPeriod, Data: buf})
	if buf[0] != 50 {
		t.Errorf("period readback = %d", buf[0])
	}
}

func TestSignalShapeAndDeterminism(t *testing.T) {
	mk := func() *Signal { return NewSignal(800, 6000, 1000, 0, sim.NewRNG(1)) }
	s1, s2 := mk(), mk()
	var min, max uint32 = 1 << 31, 0
	for i := 0; i < 2000; i++ {
		v1, v2 := s1.Next(), s2.Next()
		if v1 != v2 {
			t.Fatal("signal not deterministic")
		}
		if v1 < min {
			min = v1
		}
		if v1 > max {
			max = v1
		}
	}
	if min != 800 || max != 6000 {
		t.Errorf("range [%d,%d], want [800,6000]", min, max)
	}
}

func TestSignalJitterBounded(t *testing.T) {
	s := NewSignal(1000, 2000, 100, 10, sim.NewRNG(7))
	for i := 0; i < 5000; i++ {
		if v := s.Next(); v < 1000 || v > 2000 {
			t.Fatalf("sample %d out of bounds: %d", i, v)
		}
	}
}

func TestADCConversionAndRead(t *testing.T) {
	r := irq.New()
	s := r.AddSRN("adc", 7, irq.ToCPU, 0)
	sig := NewSignal(100, 200, 50, 0, sim.NewRNG(3))
	adc := NewADC("adc", 0xF000_0100, 10, 0, sig, r, s)
	for cy := uint64(0); cy < 35; cy++ {
		adc.Tick(cy)
	}
	if adc.Conversions != 4 { // cycles 0,10,20,30
		t.Errorf("conversions = %d, want 4", adc.Conversions)
	}
	buf := make([]byte, 4)
	adc.Access(0, &bus.Request{Addr: 0xF000_0100 + RegStatus, Data: buf})
	if buf[0] != 1 {
		t.Error("done flag not set")
	}
	adc.Access(0, &bus.Request{Addr: 0xF000_0100 + RegResult, Data: buf})
	v := uint32(buf[0]) | uint32(buf[1])<<8
	if v != adc.result {
		t.Errorf("result read %d != %d", v, adc.result)
	}
	adc.Access(0, &bus.Request{Addr: 0xF000_0100 + RegStatus, Data: buf})
	if buf[0] != 0 {
		t.Error("result read must clear done")
	}
}

func TestCANFIFOAndDrops(t *testing.T) {
	r := irq.New()
	s := r.AddSRN("can", 4, irq.ToCPU, 0)
	cn := NewCANNode("can", 0xF000_0200, 20, 4, sim.NewRNG(11), r, s)
	for cy := uint64(0); cy < 2000; cy++ {
		cn.Tick(cy)
	}
	if cn.Received == 0 {
		t.Fatal("no messages received")
	}
	if len(cn.fifo) != 4 {
		t.Errorf("fifo level = %d, want full (4)", len(cn.fifo))
	}
	if cn.Dropped == 0 {
		t.Error("undrained fifo must drop")
	}
	// Pop all four.
	buf := make([]byte, 4)
	for i := 0; i < 4; i++ {
		cn.Access(0, &bus.Request{Addr: 0xF000_0200 + RegResult, Data: buf})
	}
	if len(cn.fifo) != 0 {
		t.Errorf("fifo level after pops = %d", len(cn.fifo))
	}
}

func TestCANMeanRate(t *testing.T) {
	r := irq.New()
	s := r.AddSRN("can", 4, irq.ToCPU, 0)
	cn := NewCANNode("can", 0, 100, 1<<20, sim.NewRNG(5), r, s)
	const horizon = 1_000_000
	for cy := uint64(0); cy < horizon; cy++ {
		cn.Tick(cy)
	}
	got := float64(cn.Received)
	want := float64(horizon) / 100
	if got < want*0.9 || got > want*1.1 {
		t.Errorf("received %v messages, want about %v", got, want)
	}
	_ = s
}

func TestPeripheralNames(t *testing.T) {
	r := irq.New()
	tm := NewTimer("t0", 0, 10, 0, r, r.AddSRN("a", 1, irq.ToCPU, 0))
	adc := NewADC("a0", 0, 10, 0, NewSignal(0, 1, 2, 0, sim.NewRNG(1)), r, r.AddSRN("b", 2, irq.ToCPU, 0))
	cn := NewCANNode("c0", 0, 10, 1, sim.NewRNG(1), r, r.AddSRN("c", 3, irq.ToCPU, 0))
	if tm.Name() != "t0" || adc.Name() != "a0" || cn.Name() != "c0" {
		t.Error("names wrong")
	}
}

func TestConstructorValidation(t *testing.T) {
	r := irq.New()
	s := r.AddSRN("x", 1, irq.ToCPU, 0)
	mustPanic := func(name string, f func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s must panic", name)
			}
		}()
		f()
	}
	mustPanic("timer period 0", func() { NewTimer("t", 0, 0, 0, r, s) })
	mustPanic("adc period 0", func() { NewADC("a", 0, 0, 0, nil, r, s) })
	mustPanic("can gap 0", func() { NewCANNode("c", 0, 0, 1, sim.NewRNG(1), r, s) })
	mustPanic("can depth 0", func() { NewCANNode("c", 0, 10, 0, sim.NewRNG(1), r, s) })
	mustPanic("signal range", func() { NewSignal(10, 5, 2, 0, sim.NewRNG(1)) })
}

func TestTimerCtrlReadAndCount(t *testing.T) {
	r := irq.New()
	tm := NewTimer("t0", 0x100, 50, 0, r, r.AddSRN("a", 1, irq.ToCPU, 0))
	buf := make([]byte, 4)
	tm.Access(0, &bus.Request{Addr: 0x100 + RegCtrl, Data: buf})
	if buf[0] != 1 {
		t.Error("enabled CTRL must read 1")
	}
	for cy := uint64(0); cy < 25; cy++ {
		tm.Tick(cy)
	}
	tm.Access(0, &bus.Request{Addr: 0x100 + RegCount, Data: buf})
	if buf[0] != 25 {
		t.Errorf("count = %d", buf[0])
	}
	// Unknown register reads zero.
	buf[0] = 0xFF
	tm.Access(0, &bus.Request{Addr: 0x100 + 0x1C, Data: buf})
	if buf[0] != 0 {
		t.Error("unknown register must read zero")
	}
	// Zero-period write is ignored.
	tm.Access(0, &bus.Request{Addr: 0x100 + RegPeriod, Data: []byte{0, 0, 0, 0}, Write: true})
	if tm.Period != 50 {
		t.Error("zero period write must be ignored")
	}
}

func TestADCCtrlAndDisable(t *testing.T) {
	r := irq.New()
	sig := NewSignal(5, 5, 10, 0, sim.NewRNG(1)) // constant signal
	adc := NewADC("a0", 0x200, 10, 0, sig, r, r.AddSRN("a", 1, irq.ToCPU, 0))
	buf := make([]byte, 4)
	adc.Access(0, &bus.Request{Addr: 0x200 + RegCtrl, Data: buf})
	if buf[0] != 1 {
		t.Error("CTRL must read enabled")
	}
	adc.Access(0, &bus.Request{Addr: 0x200 + RegCtrl, Data: []byte{0, 0, 0, 0}, Write: true})
	for cy := uint64(0); cy < 100; cy++ {
		adc.Tick(cy)
	}
	if adc.Conversions != 0 {
		t.Error("disabled ADC converted")
	}
	// Constant signal returns Min.
	if v := sig.Next(); v != 5 {
		t.Errorf("constant signal = %d", v)
	}
}

func TestCANEmptyReadsAndIDRegister(t *testing.T) {
	r := irq.New()
	cn := NewCANNode("c0", 0x300, 50, 4, sim.NewRNG(2), r, r.AddSRN("a", 1, irq.ToCPU, 0))
	buf := []byte{0xFF, 0xFF, 0xFF, 0xFF}
	cn.Access(0, &bus.Request{Addr: 0x300 + RegResult, Data: buf})
	if buf[0] != 0 {
		t.Error("empty FIFO pop must read zero")
	}
	buf = []byte{0xFF, 0xFF, 0xFF, 0xFF}
	cn.Access(0, &bus.Request{Addr: 0x300 + RegID, Data: buf})
	if buf[0] != 0 {
		t.Error("empty FIFO id must read zero")
	}
	// Receive something, then the ID register shows the head without popping.
	for cy := uint64(0); cy < 500 && len(cn.fifo) == 0; cy++ {
		cn.Tick(cy)
	}
	if len(cn.fifo) == 0 {
		t.Fatal("no message arrived")
	}
	before := len(cn.fifo)
	cn.Access(0, &bus.Request{Addr: 0x300 + RegID, Data: buf})
	id := uint32(buf[0]) | uint32(buf[1])<<8
	if id < 0x100 || id > 0x11F {
		t.Errorf("message id = %#x", id)
	}
	if len(cn.fifo) != before {
		t.Error("ID read must not pop")
	}
}

func TestFlexRaySlotSchedule(t *testing.T) {
	r := irq.New()
	s := r.AddSRN("fr", 9, irq.ToCPU, 0)
	// 1000-cycle cycle, 10 slots of 100 cycles; rx in slots 2 and 7.
	fr := NewFlexRay("fr0", 0x400, 1000, 10, []int{2, 7}, 5, 8, sim.NewRNG(3), r, s)
	for cy := uint64(0); cy < 5000; cy++ {
		fr.Tick(cy)
	}
	// 5 communication cycles × 2 rx slots = 10 arrivals; the depth-8 FIFO
	// accepts 8 and drops 2 (nobody drains it).
	if fr.RxFrames+fr.Dropped != 10 {
		t.Errorf("arrivals = %d, want 10", fr.RxFrames+fr.Dropped)
	}
	if fr.Slot(0) != 0 || fr.Slot(999) != 9 || fr.Slot(1000) != 0 {
		t.Error("slot arithmetic wrong")
	}
	if len(fr.fifo) != 8 || fr.Dropped != 2 {
		t.Errorf("fifo=%d dropped=%d, want 8/2", len(fr.fifo), fr.Dropped)
	}
}

func TestFlexRayTransmitAndRegisters(t *testing.T) {
	r := irq.New()
	s := r.AddSRN("fr", 9, irq.ToCPU, 0)
	fr := NewFlexRay("fr0", 0x400, 100, 10, nil, 3, 4, sim.NewRNG(3), r, s)
	// Arm TX data via the register.
	fr.Access(0, &bus.Request{Addr: 0x400 + RegPeriod, Data: []byte{0xAA, 0, 0, 0}, Write: true})
	for cy := uint64(0); cy < 100; cy++ {
		fr.Tick(cy)
	}
	if fr.TxFrames != 1 {
		t.Errorf("tx frames = %d, want 1 (one armed frame)", fr.TxFrames)
	}
	// Without re-arming, the next cycle transmits nothing.
	for cy := uint64(100); cy < 200; cy++ {
		fr.Tick(cy)
	}
	if fr.TxFrames != 1 {
		t.Errorf("tx frames = %d, want still 1", fr.TxFrames)
	}
	buf := make([]byte, 4)
	fr.Access(0, &bus.Request{Addr: 0x400 + RegPeriod, Data: buf})
	if buf[0] != 0xAA {
		t.Error("tx register readback failed")
	}
	fr.Access(0, &bus.Request{Addr: 0x400 + RegStatus, Data: buf})
	if buf[0] != 9 { // last slot of the cycle
		t.Errorf("status slot = %d", buf[0])
	}
}

func TestFlexRayReceivePop(t *testing.T) {
	r := irq.New()
	s := r.AddSRN("fr", 9, irq.ToCPU, 0)
	fr := NewFlexRay("fr0", 0, 100, 10, []int{0}, 5, 4, sim.NewRNG(3), r, s)
	fr.Tick(0) // slot 0 -> frame
	if len(fr.fifo) != 1 || s.Requests != 1 {
		t.Fatal("frame not delivered")
	}
	buf := make([]byte, 4)
	fr.Access(0, &bus.Request{Addr: RegID, Data: buf})
	if buf[0] != 1 {
		t.Error("level register wrong")
	}
	fr.Access(0, &bus.Request{Addr: RegResult, Data: buf})
	if len(fr.fifo) != 0 {
		t.Error("pop failed")
	}
	fr.Access(0, &bus.Request{Addr: RegResult, Data: buf})
	if buf[0]|buf[1]|buf[2]|buf[3] != 0 {
		t.Error("empty pop must read zero")
	}
}

func TestFlexRayValidation(t *testing.T) {
	r := irq.New()
	s := r.AddSRN("fr", 9, irq.ToCPU, 0)
	mustPanic := func(name string, f func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s must panic", name)
			}
		}()
		f()
	}
	mustPanic("zero cycle", func() { NewFlexRay("f", 0, 0, 10, nil, 0, 1, sim.NewRNG(1), r, s) })
	mustPanic("slot oob", func() { NewFlexRay("f", 0, 100, 10, []int{10}, 0, 1, sim.NewRNG(1), r, s) })
	mustPanic("too many slots", func() { NewFlexRay("f", 0, 5, 10, nil, 0, 1, sim.NewRNG(1), r, s) })
}
