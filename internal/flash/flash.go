// Package flash models the embedded program flash (the PMU of the TriCore
// SoCs) — the component Section 4 of the paper identifies as the main lever
// for CPU system performance: "Due to the high amount of CPU access to the
// flash (data and code) the path from CPU to flash is the main lever to
// increase the CPU system performance for the real application."
//
// The model covers the behaviours the paper enumerates as making this path
// complex: multi-cycle array reads (wait states), independent code and data
// ports each with a set of line (read/prefetch) buffers, sequential
// prefetching on the code port, and arbitration between the two ports for
// the single flash array.
package flash

import (
	"fmt"

	"repro/internal/bus"
	"repro/internal/mem"
	"repro/internal/sim"
)

// Port identifiers.
const (
	PortCode = 0 // instruction fetches
	PortData = 1 // CPU/DMA data reads
)

// ArbPolicy selects how the two ports share the flash array.
type ArbPolicy uint8

// Arbitration policies for the flash array.
const (
	// ArbFCFS serves array requests strictly in arrival order; an
	// in-flight prefetch always completes.
	ArbFCFS ArbPolicy = iota
	// ArbCodePriority lets a demand read from the code port abort an
	// in-flight speculative prefetch issued on behalf of the data port
	// (and vice versa never happens).
	ArbCodePriority
	// ArbDataPriority lets a demand read from the data port abort an
	// in-flight code-side prefetch. This reflects designs that favour
	// lookup-table latency over fetch streaming.
	ArbDataPriority
)

// String names the policy.
func (p ArbPolicy) String() string {
	switch p {
	case ArbFCFS:
		return "fcfs"
	case ArbCodePriority:
		return "code-priority"
	case ArbDataPriority:
		return "data-priority"
	}
	return "arb-unknown"
}

// Fixed PMU parameters, the same on every SoC preset.
const (
	base        = mem.FlashBase // physical base address of the array
	lineBytes   = 32            // width of one array read (256 bits)
	writeCycles = 200           // cycles per (abstracted) program operation
)

// Config parameterizes a flash instance: the levers an architecture option
// may change.
type Config struct {
	Size        uint32 // array size in bytes
	WaitStates  uint64 // cycles per array read
	CodeBuffers int    // line buffers on the code port
	DataBuffers int    // line buffers on the data port
	Prefetch    bool   // sequential next-line prefetch on the code port
	Policy      ArbPolicy
}

// DefaultConfig resembles the TC1797 PMU: 4 MB array, 256-bit (32-byte)
// reads, and a small buffer set per port.
func DefaultConfig() Config {
	return Config{
		Size:        4 << 20,
		WaitStates:  5,
		CodeBuffers: 2,
		DataBuffers: 2,
		Prefetch:    true,
		Policy:      ArbCodePriority,
	}
}

type lineBuf struct {
	valid    bool
	tag      uint32 // line number
	readyAt  uint64 // cycle at which the content is usable
	lastUse  uint64 // for LRU
	byPrefex bool   // filled by prefetch (for hit attribution)
}

type port struct {
	bufs []lineBuf
}

func (p *port) lookup(line uint32) *lineBuf {
	for i := range p.bufs {
		if p.bufs[i].valid && p.bufs[i].tag == line {
			return &p.bufs[i]
		}
	}
	return nil
}

func (p *port) victim() *lineBuf {
	v := &p.bufs[0]
	for i := range p.bufs {
		b := &p.bufs[i]
		if !b.valid {
			return b
		}
		if b.lastUse < v.lastUse {
			v = b
		}
	}
	return v
}

// The array content is stored in 4 KiB pages.
const (
	pageShift = 12
	pageSize  = 1 << pageShift
)

// Flash is the embedded flash module with two bus ports sharing one array.
// The code port is exposed with CodePort() on the program LMB and the data
// port with DataPort() on the data LMB.
type Flash struct {
	cfg Config
	// pages holds the array content. A page is allocated on its first
	// write; a nil page reads as zero, so a SoC pays only for the image it
	// loads, not for the whole multi-megabyte array.
	pages []*[pageSize]byte
	ports [2]port

	arrayBusyUntil uint64
	arrayHolder    int  // port holding the array until arrayBusyUntil
	prefetchInFly  bool // current array occupancy is a speculative prefetch
	prefetchTarget *lineBuf

	counters sim.Counters

	// OnWrite, when set, is called after any operation that changes array
	// content — host-side Load and bus-side program writes — with the
	// absolute address and length of the written window. The SoC assembly
	// uses it to invalidate decoded-code caches (see isa.Decoder).
	OnWrite func(addr uint32, n int)

	// Statistics beyond the generic event counters.
	ArrayReads      uint64
	PrefetchIssued  uint64
	PrefetchAborted uint64
	PrefetchUseful  uint64
}

// New creates a flash module. The array content is zero; use Load to place
// a program image.
func New(cfg Config) *Flash {
	f := &Flash{cfg: cfg, pages: make([]*[pageSize]byte, (uint64(cfg.Size)+pageSize-1)>>pageShift)}
	f.ports[PortCode].bufs = make([]lineBuf, max(1, cfg.CodeBuffers))
	f.ports[PortData].bufs = make([]lineBuf, max(1, cfg.DataBuffers))
	return f
}

func max(a, b int) int {
	if a > b {
		return a
	}
	return b
}

// Counters exposes the flash event counters for MCDS taps.
func (f *Flash) Counters() *sim.Counters { return &f.counters }

// Load copies image into the array at physical address addr (no timing;
// used at system initialization).
func (f *Flash) Load(addr uint32, image []byte) {
	off := addr - base
	if !f.inArray(off, len(image)) {
		panic(fmt.Sprintf("flash: load beyond array (%#x+%d)", addr, len(image)))
	}
	f.write(off, image)
	if f.OnWrite != nil {
		f.OnWrite(addr, len(image))
	}
}

// ReadDirect returns the raw array content (no timing; used by trace
// decoders that need the program image). A window running past the end of
// the array fills only its in-array prefix.
func (f *Flash) ReadDirect(addr uint32, p []byte) {
	off := addr - base
	if off > f.cfg.Size {
		panic(fmt.Sprintf("flash: direct read beyond array (%#x)", addr))
	}
	f.read(off, p[:min(len(p), int(f.cfg.Size-off))])
}

// inArray reports whether the n bytes at array offset off lie inside the
// array.
func (f *Flash) inArray(off uint32, n int) bool {
	return uint64(off)+uint64(n) <= uint64(f.cfg.Size)
}

// read copies the array content at offset off into p, page by page; an
// unwritten page reads as zero. The window must lie inside the array.
func (f *Flash) read(off uint32, p []byte) {
	for len(p) > 0 {
		src := zeroPage[:]
		if pg := f.pages[off>>pageShift]; pg != nil {
			src = pg[:]
		}
		n := copy(p, src[off&(pageSize-1):])
		p = p[n:]
		off += uint32(n)
	}
}

// write copies p into the array at offset off, allocating pages on first
// write. The window must lie inside the array.
func (f *Flash) write(off uint32, p []byte) {
	for len(p) > 0 {
		pg := f.pages[off>>pageShift]
		if pg == nil {
			pg = new([pageSize]byte)
			f.pages[off>>pageShift] = pg
		}
		n := copy(pg[off&(pageSize-1):], p)
		p = p[n:]
		off += uint32(n)
	}
}

// zeroPage is what an unwritten page reads as.
var zeroPage [pageSize]byte

// CodePort returns the bus target for instruction fetches.
func (f *Flash) CodePort() bus.Target { return flashPort{f: f, port: PortCode} }

// DataPort returns the bus target for data accesses.
func (f *Flash) DataPort() bus.Target { return flashPort{f: f, port: PortData} }

type flashPort struct {
	f    *Flash
	port int
}

func (fp flashPort) Name() string {
	if fp.port == PortCode {
		return "pmu.code"
	}
	return "pmu.data"
}

func (fp flashPort) Access(grant uint64, req *bus.Request) uint64 {
	return fp.f.access(grant, fp.port, req)
}

// access implements the shared-array timing. It returns device latency in
// cycles beyond the bus transfer.
func (f *Flash) access(grant uint64, portID int, req *bus.Request) uint64 {
	off := req.Addr - base
	if !f.inArray(off, len(req.Data)) {
		panic(fmt.Sprintf("flash: access beyond array (%#x)", req.Addr))
	}
	if req.Write {
		// Abstracted program operation: occupies the array for writeCycles.
		start := f.acquireArray(grant, portID)
		f.write(off, req.Data)
		if f.OnWrite != nil {
			f.OnWrite(req.Addr, len(req.Data))
		}
		done := start + writeCycles
		f.holdArray(done, portID)
		return done - grant
	}

	line := off / lineBytes
	p := &f.ports[portID]
	readyAt := grant
	if b := p.lookup(line); b != nil {
		// Buffer hit. A hit on a still-in-flight prefetch line waits for
		// the array read to complete but needs no new array access.
		b.lastUse = grant
		if b.readyAt > grant {
			readyAt = b.readyAt
		}
		if b.byPrefex {
			f.PrefetchUseful++
			b.byPrefex = false // count each prefetched line once
			if portID == PortCode {
				f.counters.Inc(sim.EvIPrefetchHit)
			} else {
				f.counters.Inc(sim.EvDPrefetchHit)
			}
		}
	} else {
		// Demand array read.
		start := f.acquireArray(grant, portID)
		readyAt = start + f.cfg.WaitStates
		f.ArrayReads++
		b := p.victim()
		*b = lineBuf{valid: true, tag: line, readyAt: readyAt, lastUse: grant}
		f.holdArray(readyAt, portID)
	}

	// Sequential prefetch on the code port: once the demanded line is out,
	// speculatively read the next line if the array is free at that point.
	if portID == PortCode && f.cfg.Prefetch {
		f.maybePrefetch(line+1, readyAt)
	}

	f.read(off, req.Data)
	return readyAt - grant
}

// acquireArray returns the earliest cycle at which portID may start an
// array operation at or after grant, applying the abort-prefetch policy and
// counting port conflicts.
func (f *Flash) acquireArray(grant uint64, portID int) uint64 {
	if f.arrayBusyUntil <= grant {
		return grant
	}
	// Array busy. May this port abort an in-flight speculative prefetch?
	abort := false
	if f.prefetchInFly {
		switch f.cfg.Policy {
		case ArbCodePriority:
			abort = portID == PortCode
		case ArbDataPriority:
			abort = portID == PortData
		}
		// A port never needs to abort its own prefetch: a demand read for
		// the prefetched line is a buffer hit, and a different line from
		// the same port aborts too (demand beats speculation).
		if portID == f.arrayHolder {
			abort = true
		}
	}
	if abort {
		f.PrefetchAborted++
		if f.prefetchTarget != nil {
			f.prefetchTarget.valid = false
			f.prefetchTarget = nil
		}
		f.prefetchInFly = false
		return grant
	}
	if f.arrayHolder != portID {
		f.counters.Inc(sim.EvFlashPortConflict)
	}
	return f.arrayBusyUntil
}

func (f *Flash) holdArray(until uint64, portID int) {
	f.arrayBusyUntil = until
	f.arrayHolder = portID
	f.prefetchInFly = false
	f.prefetchTarget = nil
}

func (f *Flash) maybePrefetch(line uint32, from uint64) {
	if int64(line)*int64(lineBytes) >= int64(f.cfg.Size) {
		return
	}
	p := &f.ports[PortCode]
	if p.lookup(line) != nil {
		return // already buffered or being prefetched
	}
	if f.arrayBusyUntil > from {
		return // array claimed again meanwhile; skip speculation
	}
	f.PrefetchIssued++
	readyAt := from + f.cfg.WaitStates
	b := p.victim()
	*b = lineBuf{valid: true, tag: line, readyAt: readyAt, lastUse: from, byPrefex: true}
	f.arrayBusyUntil = readyAt
	f.arrayHolder = PortCode
	f.prefetchInFly = true
	f.prefetchTarget = b
}
