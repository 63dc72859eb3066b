// Package mem provides the RAM models of the SoC: bus-attached SRAM (the
// LMU), CPU-local scratchpads (PSPR/DSPR), and the address-map constants
// shared by the whole system.
package mem

import (
	"fmt"

	"repro/internal/bus"
)

// Address map of the simulated SoC, following the TriCore segment
// conventions: segment 0x8 is the cached view of the program flash and
// segment 0xA the uncached view of the same array; scratchpads are
// CPU-local; segment 0xF holds peripherals behind the SPB bridge.
const (
	FlashBase   = 0x8000_0000 // cached program flash view
	FlashUncach = 0xA000_0000 // uncached view of the same array
	SRAMBase    = 0x9000_0000 // bus SRAM (LMU)
	SRAMUncach  = 0xB000_0000 // uncached view of the LMU
	PSPRBase    = 0xC000_0000 // program scratchpad (CPU 0)
	DSPRBase    = 0xD000_0000 // data scratchpad (CPU 0)
	PSPR1Base   = 0xC800_0000 // program scratchpad (CPU 1; the real silicon
	DSPR1Base   = 0xD800_0000 // aliases per-core scratchpads at one address —
	//                           distinct windows keep the single Peek simple)
	EMEMBase    = 0xE000_0000 // emulation memory (EEC, over Back Bone Bus)
	MCDSRegBase = 0xE800_0000 // MCDS register file (EEC, over Back Bone Bus)
	PeriphBase  = 0xF000_0000 // peripheral segment (SPB)
	PRAMBase    = 0xF800_0000 // PCP code/data RAM

	SegMask = 0xF000_0000

	// DeltaUncachedToCached, added to an uncached-view address (segment
	// 0xA/0xB), yields the cached twin (segment 0x8/0x9); used with
	// bus.NewAlias when mapping the uncached views.
	DeltaUncachedToCached uint32 = 0xE000_0000
)

// Segment returns the top-nibble segment of addr.
func Segment(addr uint32) uint32 { return addr & SegMask }

// CachedView maps an uncached-view address to its cached twin (and returns
// other addresses unchanged).
func CachedView(addr uint32) uint32 {
	switch Segment(addr) {
	case FlashUncach:
		return FlashBase | (addr &^ SegMask)
	case SRAMUncach:
		return SRAMBase | (addr &^ SegMask)
	}
	return addr
}

// RAM is a simple byte-addressable memory with uniform access latency. It
// serves both as a bus target (LMU SRAM, PCP PRAM) and, with latency 0, as
// the backing store of CPU-local scratchpads.
type RAM struct {
	name    string
	base    uint32
	data    []byte
	latency uint64

	Reads  uint64
	Writes uint64
}

// NewRAM creates a RAM of size bytes based at base with the given device
// latency in cycles.
func NewRAM(name string, base, size uint32, latency uint64) *RAM {
	return &RAM{name: name, base: base, data: make([]byte, size), latency: latency}
}

// Name returns the RAM instance name.
func (r *RAM) Name() string { return r.name }

// Size returns the capacity in bytes.
func (r *RAM) Size() uint32 { return uint32(len(r.data)) }

// Contains reports whether addr (plus size bytes) falls inside the RAM.
func (r *RAM) Contains(addr uint32, size int) bool {
	off := int64(addr) - int64(r.base)
	return off >= 0 && off+int64(size) <= int64(len(r.data))
}

func (r *RAM) offset(addr uint32, n int) int {
	off := int64(addr) - int64(r.base)
	if off < 0 || off+int64(n) > int64(len(r.data)) {
		panic(fmt.Sprintf("ram %s: access outside [%#x,+%#x): %#x", r.name, r.base, len(r.data), addr))
	}
	return int(off)
}

// Access implements bus.Target.
func (r *RAM) Access(_ uint64, req *bus.Request) uint64 {
	off := r.offset(req.Addr, len(req.Data))
	if req.Write {
		copy(r.data[off:], req.Data)
		r.Writes++
	} else {
		copy(req.Data, r.data[off:])
		r.Reads++
	}
	return r.latency
}

// Read copies memory content into p (no timing; CPU-local or test access).
func (r *RAM) Read(addr uint32, p []byte) {
	copy(p, r.data[r.offset(addr, len(p)):])
	r.Reads++
}

// Write copies p into memory (no timing).
func (r *RAM) Write(addr uint32, p []byte) {
	copy(r.data[r.offset(addr, len(p)):], p)
	r.Writes++
}

// Read32 returns the little-endian word at addr.
func (r *RAM) Read32(addr uint32) uint32 {
	off := r.offset(addr, 4)
	return uint32(r.data[off]) | uint32(r.data[off+1])<<8 |
		uint32(r.data[off+2])<<16 | uint32(r.data[off+3])<<24
}

// Write32 stores the little-endian word v at addr.
func (r *RAM) Write32(addr uint32, v uint32) {
	off := r.offset(addr, 4)
	r.data[off] = byte(v)
	r.data[off+1] = byte(v >> 8)
	r.data[off+2] = byte(v >> 16)
	r.data[off+3] = byte(v >> 24)
}
