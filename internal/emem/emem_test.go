package emem

import (
	"bytes"
	"testing"
	"testing/quick"

	"repro/internal/bus"
	"repro/internal/mem"
)

func TestPartitioning(t *testing.T) {
	e := New(512<<10, 128<<10, 2)
	if e.Size() != 512<<10 || e.OverlayBytes() != 128<<10 || e.TraceCapacity() != 384<<10 {
		t.Errorf("partitions wrong: %d/%d/%d", e.Size(), e.OverlayBytes(), e.TraceCapacity())
	}
}

func TestAppendDrainFIFO(t *testing.T) {
	e := New(1024, 0, 0)
	e.AppendTrace([]byte{1, 2, 3})
	e.AppendTrace([]byte{4, 5})
	if e.Level() != 5 {
		t.Fatalf("level = %d", e.Level())
	}
	got := e.Drain(4)
	if !bytes.Equal(got, []byte{1, 2, 3, 4}) {
		t.Errorf("drained %v", got)
	}
	if e.Level() != 1 {
		t.Errorf("level after drain = %d", e.Level())
	}
	if got := e.Drain(10); !bytes.Equal(got, []byte{5}) {
		t.Errorf("tail drain = %v", got)
	}
	if e.MsgsWritten != 2 || e.BytesWritten != 5 || e.BytesDrained != 5 || e.PeakLevel != 5 {
		t.Errorf("stats: %d msgs, %d bytes written, %d drained, peak %d; want 2, 5, 5, 5",
			e.MsgsWritten, e.BytesWritten, e.BytesDrained, e.PeakLevel)
	}
}

func TestOverflowDropsWholeMessage(t *testing.T) {
	e := New(8, 0, 0)
	if !e.AppendTrace([]byte{1, 2, 3, 4, 5, 6}) {
		t.Fatal("first append must fit")
	}
	if e.AppendTrace([]byte{7, 8, 9}) {
		t.Fatal("overflow append must fail")
	}
	if e.MsgsDropped != 1 {
		t.Errorf("drops = %d", e.MsgsDropped)
	}
	// Stream content is unaffected by the dropped message.
	if got := e.Drain(6); !bytes.Equal(got, []byte{1, 2, 3, 4, 5, 6}) {
		t.Errorf("content corrupted: %v", got)
	}
}

func TestRingWrapProperty(t *testing.T) {
	// Any interleaving of appends and drains preserves FIFO order.
	f := func(ops []uint8) bool {
		e := New(64, 0, 0)
		var expect []byte
		next := byte(0)
		for _, op := range ops {
			if op%3 == 0 {
				n := int(op%7) + 1
				msg := make([]byte, n)
				for i := range msg {
					msg[i] = next
					next++
				}
				if e.AppendTrace(msg) {
					expect = append(expect, msg...)
				}
			} else {
				n := uint32(op % 9)
				got := e.Drain(n)
				if len(got) > len(expect) {
					return false
				}
				if !bytes.Equal(got, expect[:len(got)]) {
					return false
				}
				expect = expect[len(got):]
			}
		}
		return e.Level() == uint32(len(expect))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestPeakLevelTracking(t *testing.T) {
	e := New(100, 0, 0)
	e.AppendTrace(make([]byte, 30))
	e.AppendTrace(make([]byte, 40))
	e.Drain(50)
	e.AppendTrace(make([]byte, 10))
	if e.PeakLevel != 70 {
		t.Errorf("peak = %d, want 70", e.PeakLevel)
	}
}

type fixedTarget struct{ hits int }

func (f *fixedTarget) Name() string { return "flash" }
func (f *fixedTarget) Access(_ uint64, req *bus.Request) uint64 {
	f.hits++
	for i := range req.Data {
		req.Data[i] = 0xFF
	}
	return 5
}

func TestOverlayRedirection(t *testing.T) {
	e := New(64<<10, 32<<10, 1)
	ft := &fixedTarget{}
	ov := NewOverlay(ft, e)
	ov.MapPage(Page{FlashAddr: 0x8000_1000, EmemOff: 0x100, Size: 256})
	e.RAM.Write32(mem.EMEMBase+0x100, 0xABCD)

	// Inside the page: served from EMEM.
	req := &bus.Request{Addr: 0x8000_1000, Data: make([]byte, 4)}
	ov.Access(0, req)
	if req.Data[0] != 0xCD || ft.hits != 0 {
		t.Errorf("redirect failed: %v hits=%d", req.Data, ft.hits)
	}
	// Outside: passed through to flash.
	req2 := &bus.Request{Addr: 0x8000_2000, Data: make([]byte, 4)}
	ov.Access(0, req2)
	if ft.hits != 1 || req2.Data[0] != 0xFF {
		t.Error("pass-through failed")
	}
	if ov.Redirected != 1 || ov.PassedThru != 1 {
		t.Errorf("stats %d/%d", ov.Redirected, ov.PassedThru)
	}
	// Straddling the page end: not redirected (partial pages are unsafe).
	req3 := &bus.Request{Addr: 0x8000_10FE, Data: make([]byte, 4)}
	ov.Access(0, req3)
	if ov.PassedThru != 2 {
		t.Error("straddling access must pass through")
	}
}

func TestOverlayResolve(t *testing.T) {
	e := New(64<<10, 32<<10, 1)
	ov := NewOverlay(&fixedTarget{}, e)
	ov.MapPage(Page{FlashAddr: 0x8000_0000, EmemOff: 0, Size: 64})
	if a, ok := ov.Resolve(0x8000_0010, 4); !ok || a != mem.EMEMBase+0x10 {
		t.Errorf("resolve = %#x/%v", a, ok)
	}
	if _, ok := ov.Resolve(0x8000_0040, 4); ok {
		t.Error("out-of-page resolve must fail")
	}
	ov.ClearPages()
	if _, ok := ov.Resolve(0x8000_0010, 4); ok {
		t.Error("resolve after clear must fail")
	}
}

func TestOverlayPageBoundsPanic(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("page beyond partition must panic")
		}
	}()
	e := New(1024, 256, 0)
	NewOverlay(&fixedTarget{}, e).MapPage(Page{FlashAddr: 0, EmemOff: 200, Size: 100})
}
