package mem

import (
	"testing"

	"repro/internal/bus"
)

func TestSegmentHelpers(t *testing.T) {
	if Segment(0x8001_2345) != FlashBase {
		t.Error("segment of cached flash address")
	}
	if CachedView(0xA001_2345) != 0x8001_2345 {
		t.Errorf("CachedView(flash uncached) = %#x", CachedView(0xA001_2345))
	}
	if CachedView(0xB000_0010) != 0x9000_0010 {
		t.Errorf("CachedView(sram uncached) = %#x", CachedView(0xB000_0010))
	}
	if CachedView(0xD000_0000) != 0xD000_0000 {
		t.Error("CachedView must leave other segments alone")
	}
}

func TestRAMReadWrite32(t *testing.T) {
	r := NewRAM("dspr", DSPRBase, 4096, 0)
	r.Write32(DSPRBase+8, 0xDEADBEEF)
	if got := r.Read32(DSPRBase + 8); got != 0xDEADBEEF {
		t.Errorf("Read32 = %#x", got)
	}
	// Byte order is little-endian.
	b := make([]byte, 4)
	r.Read(DSPRBase+8, b)
	if b[0] != 0xEF || b[3] != 0xDE {
		t.Errorf("endianness wrong: %v", b)
	}
}

func TestRAMAsBusTarget(t *testing.T) {
	r := NewRAM("lmu", SRAMBase, 4096, 2)
	req := &bus.Request{Addr: SRAMBase + 16, Data: []byte{1, 2, 3, 4}, Write: true}
	if lat := r.Access(0, req); lat != 2 {
		t.Errorf("latency = %d, want 2", lat)
	}
	rd := &bus.Request{Addr: SRAMBase + 16, Data: make([]byte, 4)}
	r.Access(5, rd)
	if rd.Data[0] != 1 || rd.Data[3] != 4 {
		t.Errorf("read back %v", rd.Data)
	}
	if r.Reads != 1 || r.Writes != 1 {
		t.Errorf("stats reads=%d writes=%d", r.Reads, r.Writes)
	}
}

func TestRAMContains(t *testing.T) {
	r := NewRAM("x", 0x1000, 0x100, 0)
	if !r.Contains(0x1000, 4) || !r.Contains(0x10FC, 4) {
		t.Error("in-range addresses rejected")
	}
	if r.Contains(0x10FD, 4) || r.Contains(0xFFF, 1) {
		t.Error("out-of-range addresses accepted")
	}
}

func TestRAMOutOfRangePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("out-of-range access must panic")
		}
	}()
	r := NewRAM("x", 0x1000, 0x10, 0)
	r.Read32(0x1010)
}

func TestRAMAccessors(t *testing.T) {
	r := NewRAM("x", 0x1000, 0x100, 2)
	if r.Name() != "x" || r.base != 0x1000 || r.Size() != 0x100 {
		t.Error("accessors wrong")
	}
	r.Write(0x1010, []byte{9, 8})
	b := make([]byte, 2)
	r.Read(0x1010, b)
	if b[0] != 9 || b[1] != 8 {
		t.Errorf("write/read: %v", b)
	}
}
