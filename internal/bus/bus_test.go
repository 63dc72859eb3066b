package bus

import (
	"testing"

	"repro/internal/sim"
)

// fixedTarget records accesses and returns a fixed device latency.
type fixedTarget struct {
	name    string
	latency uint64
	log     []Request
}

func (t *fixedTarget) Name() string { return t.name }
func (t *fixedTarget) Access(grant uint64, req *Request) uint64 {
	t.log = append(t.log, *req)
	if !req.Write {
		for i := range req.Data {
			req.Data[i] = byte(req.Addr >> (8 * (uint(i) % 4)))
		}
	}
	return t.latency
}

func TestDecodeRouting(t *testing.T) {
	b := New("lmb", 1)
	t1 := &fixedTarget{name: "a"}
	t2 := &fixedTarget{name: "b"}
	b.Map(0x1000, 0x1000, t1)
	b.Map(0x8000, 0x100, t2)

	if got := b.Decode(0x1000); got != Target(t1) {
		t.Errorf("Decode(0x1000) = %v", got)
	}
	if got := b.Decode(0x1FFF); got != Target(t1) {
		t.Errorf("Decode(0x1FFF) = %v", got)
	}
	if got := b.Decode(0x2000); got != nil {
		t.Errorf("Decode(0x2000) = %v, want nil", got)
	}
	if got := b.Decode(0x80FF); got != Target(t2) {
		t.Errorf("Decode(0x80FF) = %v", got)
	}
}

func TestMapOverlapPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("overlapping Map must panic")
		}
	}()
	b := New("lmb", 1)
	b.Map(0x1000, 0x1000, &fixedTarget{name: "a"})
	b.Map(0x1800, 0x1000, &fixedTarget{name: "b"})
}

func TestAccessUnmapped(t *testing.T) {
	b := New("lmb", 1)
	_, err := b.Access(0, &Request{Addr: 0xDEAD, Data: make([]byte, 4)})
	if _, ok := err.(*ErrUnmapped); !ok {
		t.Fatalf("err = %v, want ErrUnmapped", err)
	}
}

func TestAccessLatency(t *testing.T) {
	b := New("lmb", 1)
	tg := &fixedTarget{name: "sram", latency: 3}
	b.Map(0, 0x1000, tg)

	done, err := b.Access(10, &Request{Addr: 4, Data: make([]byte, 4)})
	if err != nil {
		t.Fatal(err)
	}
	if done != 14 { // grant 10 + transfer 1 + device 3
		t.Errorf("done = %d, want 14", done)
	}
}

func TestContentionSerializesAndCounts(t *testing.T) {
	b := New("lmb", 1)
	tg := &fixedTarget{name: "sram", latency: 2}
	b.Map(0, 0x1000, tg)

	// Two masters both request at cycle 5.
	d0, _ := b.Access(5, &Request{Addr: 0, Data: make([]byte, 4)})
	d1, _ := b.Access(5, &Request{Addr: 4, Data: make([]byte, 4)})
	if d0 != 8 {
		t.Errorf("first done = %d, want 8", d0)
	}
	if d1 != 11 { // waits until 8, then 1+2
		t.Errorf("second done = %d, want 11", d1)
	}
	c := b.Counters()
	if c.Get(sim.EvBusContention) != 1 || c.Get(sim.EvBusWaitCycle) != 3 {
		t.Errorf("contention counters wrong: %d/%d",
			c.Get(sim.EvBusContention), c.Get(sim.EvBusWaitCycle))
	}
	if c.Get(sim.EvBusRequest) != 2 || c.Get(sim.EvBusGrant) != 2 {
		t.Errorf("request/grant counters wrong")
	}
}

func TestBusFreesAfterIdle(t *testing.T) {
	b := New("spb", 2)
	tg := &fixedTarget{name: "periph", latency: 1}
	b.Map(0, 0x100, tg)
	d0, _ := b.Access(0, &Request{Addr: 0, Data: make([]byte, 4)})
	// Request long after the first completed: no waiting.
	d1, _ := b.Access(d0+10, &Request{Addr: 4, Data: make([]byte, 4)})
	if d1 != d0+10+3 {
		t.Errorf("idle access done = %d, want %d", d1, d0+10+3)
	}
	c := b.Counters()
	if c.Get(sim.EvBusContention) != 0 || c.Get(sim.EvBusWaitCycle) != 0 {
		t.Errorf("no wait expected, got %d conflicts / %d cycles",
			c.Get(sim.EvBusContention), c.Get(sim.EvBusWaitCycle))
	}
}

func TestReadDataMovement(t *testing.T) {
	b := New("lmb", 1)
	b.Map(0x100, 0x100, &fixedTarget{name: "x"})
	buf := make([]byte, 4)
	if _, err := b.Access(0, &Request{Addr: 0x104, Data: buf}); err != nil {
		t.Fatal(err)
	}
	if buf[0] != 0x04 {
		t.Errorf("data not moved: %v", buf)
	}
}

func TestBridgeForwards(t *testing.T) {
	far := New("spb", 2)
	tg := &fixedTarget{name: "periph", latency: 1}
	far.Map(0xF000_0000, 0x1000, tg)

	near := New("lmb", 1)
	br := NewBridge("lfi", far, 1)
	near.Map(0xF000_0000, 0x1000_0000, br)

	done, err := near.Access(0, &Request{Addr: 0xF000_0010, Data: make([]byte, 4)})
	if err != nil {
		t.Fatal(err)
	}
	// near grant 0 + near transfer 1 + bridge device latency.
	// bridge: far access at 0+1 → done 1+2+1 = 4 → device latency 4.
	if done != 5 {
		t.Errorf("bridged done = %d, want 5", done)
	}
	if len(tg.log) != 1 || tg.log[0].Addr != 0xF000_0010 {
		t.Errorf("far side must see the forwarded request, got %+v", tg.log)
	}
	if far.Counters().Get(sim.EvBusRequest) != 1 {
		t.Error("far bus must count the bridged request")
	}
}

func TestAliasRebasesAddresses(t *testing.T) {
	far := &fixedTarget{name: "flash", latency: 2}
	al := NewAlias(far, 0xE000_0000) // 0xA... -> 0x8...
	if al.Name() != "flash~alias" {
		t.Errorf("alias name = %q", al.Name())
	}
	buf := make([]byte, 4)
	lat := al.Access(0, &Request{Addr: 0xA000_0010, Data: buf})
	if lat != 2 {
		t.Errorf("latency = %d", lat)
	}
	if len(far.log) != 1 || far.log[0].Addr != 0x8000_0010 {
		t.Errorf("target saw %+v", far.log)
	}
	// Write path forwards too.
	al.Access(0, &Request{Addr: 0xA000_0020, Data: []byte{1}, Write: true})
	if far.log[1].Addr != 0x8000_0020 || !far.log[1].Write {
		t.Errorf("write not forwarded: %+v", far.log[1])
	}
}

func TestBusAccessors(t *testing.T) {
	b := New("lmb", 0) // zero transfer cycles clamp to 1
	if b.Name() != "lmb" {
		t.Errorf("name = %q", b.Name())
	}
	tg := &fixedTarget{name: "x", latency: 1}
	b.Map(0, 0x100, tg)
	done, _ := b.Access(5, &Request{Addr: 0, Data: make([]byte, 4)})
	if done != 7 { // grant 5 + clamped transfer 1 + device 1
		t.Errorf("done = %d", done)
	}
	// The bus is held until the completion cycle and free from it on.
	again, _ := b.Access(done, &Request{Addr: 0, Data: make([]byte, 4)})
	if again != done+2 || b.Counters().Get(sim.EvBusContention) != 0 {
		t.Errorf("back-to-back done = %d, want %d without contention", again, done+2)
	}
	b.Access(again-1, &Request{Addr: 0, Data: make([]byte, 4)})
	if b.Counters().Get(sim.EvBusWaitCycle) != 1 {
		t.Errorf("early access waited %d cycles, want 1", b.Counters().Get(sim.EvBusWaitCycle))
	}
	err := &ErrUnmapped{Bus: "lmb", Addr: 0xBEEF}
	if err.Error() == "" {
		t.Error("empty error string")
	}
	br := NewBridge("br", b, 0)
	if br.Name() != "br" {
		t.Errorf("bridge name = %q", br.Name())
	}
}

func TestBridgePanicsOnUnmappedFarSide(t *testing.T) {
	far := New("spb", 1)
	br := NewBridge("br", far, 0)
	defer func() {
		if recover() == nil {
			t.Error("bridge to unmapped address must panic")
		}
	}()
	br.Access(0, &Request{Addr: 0xDEAD, Data: make([]byte, 4)})
}
