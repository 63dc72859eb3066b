package dma

import (
	"testing"

	"repro/internal/bus"
	"repro/internal/irq"
	"repro/internal/mem"
	"repro/internal/sim"
)

func setup(t *testing.T) (*Controller, *irq.Router, *mem.RAM, *sim.Clock) {
	t.Helper()
	b := bus.New("spb", 2)
	ram := mem.NewRAM("sram", 0x1000, 0x1000, 1)
	b.Map(0x1000, 0x1000, ram)
	r := irq.New()
	ctl := New("dma0", b, r)
	clk := sim.NewClock()
	clk.Attach("dma", ctl)
	return ctl, r, ram, clk
}

func TestBlockTransfer(t *testing.T) {
	ctl, r, ram, clk := setup(t)
	for i := uint32(0); i < 8; i++ {
		ram.Write32(0x1000+i*4, 0xA0+i)
	}
	trig := r.AddSRN("trig", 1, irq.ToDMA, 0)
	done := r.AddSRN("done", 3, irq.ToCPU, 0)
	ch := &Channel{Name: "c0", Src: 0x1000, Dst: 0x1800, SrcInc: 4, DstInc: 4,
		UnitBytes: 4, Count: 8, DoneSRN: done}
	ctl.AddChannel(ch, trig)

	r.Request(trig)
	clk.Run(500)

	for i := uint32(0); i < 8; i++ {
		if got := ram.Read32(0x1800 + i*4); got != 0xA0+i {
			t.Fatalf("word %d = %#x, want %#x", i, got, 0xA0+i)
		}
	}
	if ch.Transfers != 8 || ch.Triggers != 1 {
		t.Errorf("transfers=%d triggers=%d", ch.Transfers, ch.Triggers)
	}
	if done.Requests != 1 {
		t.Error("done SRN not raised")
	}
	if ctl.Counters().Get(sim.EvDMATransfer) != 8 {
		t.Errorf("EvDMATransfer = %d", ctl.Counters().Get(sim.EvDMATransfer))
	}
}

func TestFixedSourceAddress(t *testing.T) {
	ctl, r, ram, clk := setup(t)
	ram.Write32(0x1000, 0x55)
	trig := r.AddSRN("trig", 1, irq.ToDMA, 0)
	ch := &Channel{Name: "c0", Src: 0x1000, Dst: 0x1100, SrcInc: 0, DstInc: 4,
		UnitBytes: 4, Count: 3}
	ctl.AddChannel(ch, trig)
	r.Request(trig)
	clk.Run(200)
	for i := uint32(0); i < 3; i++ {
		if got := ram.Read32(0x1100 + i*4); got != 0x55 {
			t.Fatalf("copy %d = %#x", i, got)
		}
	}
}

func TestTriggersQueueViaRouter(t *testing.T) {
	ctl, r, ram, clk := setup(t)
	ram.Write32(0x1000, 7)
	trig := r.AddSRN("trig", 1, irq.ToDMA, 0)
	ch := &Channel{Name: "c0", Src: 0x1000, Dst: 0x1200, SrcInc: 0, DstInc: 4,
		UnitBytes: 4, Count: 1}
	ctl.AddChannel(ch, trig)

	r.Request(trig)
	clk.Run(100)
	r.Request(trig)
	clk.Run(100)
	if ch.Triggers != 2 || ch.Transfers != 2 {
		t.Errorf("triggers=%d transfers=%d, want 2/2", ch.Triggers, ch.Transfers)
	}
}

func TestDMAContendsOnBus(t *testing.T) {
	b := bus.New("spb", 2)
	ram := mem.NewRAM("sram", 0x1000, 0x1000, 1)
	b.Map(0x1000, 0x1000, ram)
	r := irq.New()
	ctl := New("dma0", b, r)
	trig := r.AddSRN("trig", 1, irq.ToDMA, 0)
	ctl.AddChannel(&Channel{Name: "c0", Src: 0x1000, Dst: 0x1400, SrcInc: 4, DstInc: 4,
		UnitBytes: 4, Count: 64}, trig)
	r.Request(trig)

	clk := sim.NewClock()
	clk.Attach("dma", ctl)
	// A competing master hammers the bus each cycle.
	buf := make([]byte, 4)
	clk.Attach("rival", sim.TickerFunc(func(cy uint64) {
		b.Access(cy, &bus.Request{Addr: 0x1FF0, Data: buf})
	}))
	clk.Run(3000)
	c := b.Counters()
	if c.Get(sim.EvBusContention) == 0 || c.Get(sim.EvBusWaitCycle) == 0 {
		t.Error("expected bus contention between DMA and rival master")
	}
}

func TestBadChannelConfigPanics(t *testing.T) {
	ctl, r, _, _ := setup(t)
	trig := r.AddSRN("trig", 2, irq.ToDMA, 0)
	for _, ch := range []*Channel{
		{Name: "bad-unit", UnitBytes: 2, Count: 1},
		{Name: "bad-count", UnitBytes: 4, Count: 0},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s must panic", ch.Name)
				}
			}()
			ctl.AddChannel(ch, trig)
		}()
	}
	// Wrong provider.
	cpuSRN := r.AddSRN("cpu", 1, irq.ToCPU, 0)
	defer func() {
		if recover() == nil {
			t.Error("non-DMA SRN must panic")
		}
	}()
	ctl.AddChannel(&Channel{Name: "c", UnitBytes: 4, Count: 1}, cpuSRN)
}
