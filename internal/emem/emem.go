// Package emem models the Emulation Memory of the Emulation Device: a few
// hundred KB of SRAM on the Emulation Extension Chip, "shared between
// calibration overlay and trace" (paper Section 3). One partition backs
// calibration overlay pages that redirect flash data windows to RAM; the
// rest is the on-chip trace buffer the MCDS writes into and the DAP tool
// interface drains.
package emem

import (
	"fmt"
	"slices"

	"repro/internal/bus"
	"repro/internal/mem"
)

// EMEM is the emulation memory.
type EMEM struct {
	RAM *mem.RAM // whole array, mapped at mem.EMEMBase

	overlayBytes uint32 // [0, overlayBytes) reserved for calibration overlay

	// Trace ring buffer state (byte ring inside the trace partition).
	traceBase uint32 // offset of the trace partition inside the array
	traceSize uint32
	head      uint32 // write offset inside the trace partition
	tail      uint32 // read offset
	level     uint32 // bytes currently buffered

	// Backpressure, while set, makes AppendTrace refuse every message as
	// if the ring were full — the fault injector's trace-FIFO jam. The
	// MCDS reacts exactly as it does to a genuine overflow (overflow
	// marker + re-sync), so the jam is visible, not silent.
	Backpressure bool

	// OnRise, when set, is called when an append lifts the ring out of
	// empty: the wake of a drain that sleeps while there is nothing to
	// drain.
	OnRise func()

	// Statistics.
	MsgsWritten  uint64
	BytesWritten uint64
	MsgsDropped  uint64 // messages lost to a full buffer
	BytesDrained uint64
	PeakLevel    uint32
	SoftErrors   uint64 // injected trace-ring bit flips
}

// New creates an EMEM of size bytes with the first overlayBytes reserved
// for calibration overlay pages (TC1797ED: 512 KB, TC1767ED: 256 KB).
func New(size, overlayBytes uint32, latency uint64) *EMEM {
	if overlayBytes > size {
		panic("emem: overlay larger than array")
	}
	return &EMEM{
		RAM:          mem.NewRAM("emem", mem.EMEMBase, size, latency),
		overlayBytes: overlayBytes,
		traceBase:    overlayBytes,
		traceSize:    size - overlayBytes,
	}
}

// Size returns the array capacity.
func (e *EMEM) Size() uint32 { return e.RAM.Size() }

// TraceCapacity returns the bytes available to the trace ring.
func (e *EMEM) TraceCapacity() uint32 { return e.traceSize }

// OverlayBytes returns the size of the calibration overlay partition.
func (e *EMEM) OverlayBytes() uint32 { return e.overlayBytes }

// Level returns the bytes currently buffered in the trace ring.
func (e *EMEM) Level() uint32 { return e.level }

// AppendTrace stores one encoded trace message in the ring. It returns
// false (and counts a drop) when the message does not fit — the hardware
// equivalent of a trace FIFO overflow.
func (e *EMEM) AppendTrace(msg []byte) bool {
	n := uint32(len(msg))
	if n == 0 {
		return true
	}
	if e.Backpressure || n > e.traceSize-e.level {
		e.MsgsDropped++
		return false
	}
	first := e.traceSize - e.head
	if first > n {
		first = n
	}
	e.RAM.Write(mem.EMEMBase+e.traceBase+e.head, msg[:first])
	if first < n {
		e.RAM.Write(mem.EMEMBase+e.traceBase, msg[first:])
	}
	e.head = (e.head + n) % e.traceSize
	rose := e.level == 0
	e.level += n
	e.MsgsWritten++
	e.BytesWritten += uint64(n)
	if e.level > e.PeakLevel {
		e.PeakLevel = e.level
	}
	if rose && e.OnRise != nil {
		e.OnRise()
	}
	return true
}

// Drain removes up to n bytes from the ring (the DAP read path) and
// returns them.
func (e *EMEM) Drain(n uint32) []byte {
	return e.DrainInto(nil, n)
}

// DrainInto removes up to n bytes from the ring and appends them to dst,
// returning the extended slice. With a reused scratch buffer this is the
// allocation-free variant the per-cycle DAP drain runs on.
func (e *EMEM) DrainInto(dst []byte, n uint32) []byte {
	if n > e.level {
		n = e.level
	}
	start := len(dst)
	// Grow rather than append a make: the race detector's instrumentation
	// turns the latter into an allocation per call.
	dst = slices.Grow(dst, int(n))[:start+int(n)]
	out := dst[start:]
	first := e.traceSize - e.tail
	if first > n {
		first = n
	}
	e.RAM.Read(mem.EMEMBase+e.traceBase+e.tail, out[:first])
	if first < n {
		e.RAM.Read(mem.EMEMBase+e.traceBase, out[first:])
	}
	e.tail = (e.tail + n) % e.traceSize
	e.level -= n
	e.BytesDrained += uint64(n)
	return dst
}

// CorruptBit flips one bit of the i-th currently buffered byte (counted
// from the read side). It models an EMEM soft error: SRAM content decays
// under radiation or marginal timing, and — unlike a link error — a
// retransmission re-reads the same corrupted cell, so only the frame CRC
// on the tool side can catch it. A no-op when i is outside the buffered
// region.
func (e *EMEM) CorruptBit(i uint32, bit uint8) {
	if i >= e.level {
		return
	}
	pos := (e.tail + i) % e.traceSize
	var b [1]byte
	e.RAM.Read(mem.EMEMBase+e.traceBase+pos, b[:])
	b[0] ^= 1 << (bit & 7)
	e.RAM.Write(mem.EMEMBase+e.traceBase+pos, b[:])
	e.SoftErrors++
}

// Page describes one calibration overlay redirection: accesses to the
// flash window [FlashAddr, FlashAddr+Size) are served from emem offset
// EmemOff instead of the flash array.
type Page struct {
	FlashAddr uint32
	EmemOff   uint32
	Size      uint32
}

// Overlay is a bus target that wraps the flash data port and redirects
// configured windows into the EMEM overlay partition. It implements the
// calibration use case of the Emulation Device: tuning data structures
// in RAM while the production image stays in flash.
type Overlay struct {
	Flash bus.Target
	Emem  *EMEM
	pages []Page

	// OnRemap, when set, is called after every redirection-table change
	// (MapPage, ClearPages). Remapping changes what a flash address reads
	// as, so the SoC assembly hooks decoded-code invalidation here.
	OnRemap func()

	// OnWrite, when set, is called for every write redirected into the
	// overlay partition, with the *flash-view* address the writer used.
	// Such writes change what the overlaid window reads as — the same
	// invalidation obligation as programming the flash array itself.
	OnWrite func(flashAddr uint32, n int)

	Redirected uint64 // accesses served from the overlay
	PassedThru uint64
}

// NewOverlay wraps flashPort with an empty redirection table.
func NewOverlay(flashPort bus.Target, e *EMEM) *Overlay {
	return &Overlay{Flash: flashPort, Emem: e}
}

// Name implements bus.Target.
func (o *Overlay) Name() string { return o.Flash.Name() + "+overlay" }

// MapPage adds a redirection page. It panics when the page exceeds the
// overlay partition.
func (o *Overlay) MapPage(p Page) {
	if p.EmemOff+p.Size > o.Emem.overlayBytes {
		panic(fmt.Sprintf("emem: overlay page beyond partition (%#x+%#x)", p.EmemOff, p.Size))
	}
	o.pages = append(o.pages, p)
	if o.OnRemap != nil {
		o.OnRemap()
	}
}

// ClearPages removes all redirections.
func (o *Overlay) ClearPages() {
	o.pages = nil
	if o.OnRemap != nil {
		o.OnRemap()
	}
}

// Resolve returns the redirected EMEM address for a flash access of size
// bytes at addr, or ok=false when no page covers it. Backdoor (Peek) reads
// must apply the same redirection the timed path applies.
func (o *Overlay) Resolve(addr uint32, size int) (uint32, bool) {
	for _, p := range o.pages {
		if addr >= p.FlashAddr && addr+uint32(size) <= p.FlashAddr+p.Size {
			return mem.EMEMBase + p.EmemOff + (addr - p.FlashAddr), true
		}
	}
	return 0, false
}

// Access implements bus.Target.
func (o *Overlay) Access(grant uint64, req *bus.Request) uint64 {
	for _, p := range o.pages {
		if req.Addr >= p.FlashAddr && req.Addr+uint32(len(req.Data)) <= p.FlashAddr+p.Size {
			o.Redirected++
			if req.Write && o.OnWrite != nil {
				o.OnWrite(req.Addr, len(req.Data))
			}
			shifted := *req
			shifted.Addr = mem.EMEMBase + p.EmemOff + (req.Addr - p.FlashAddr)
			return o.Emem.RAM.Access(grant, &shifted)
		}
	}
	o.PassedThru++
	return o.Flash.Access(grant, req)
}
