package tricore

import (
	"fmt"

	"repro/internal/bus"
	"repro/internal/cache"
	"repro/internal/mem"
	"repro/internal/sim"
)

// Backdoor reads memory content without timing. The SoC assembly provides
// one that resolves any mapped address (flash image, SRAM, scratchpads).
// It exists because the caches are tag-only timing models: data always
// lives in the backing store.
type Backdoor func(addr uint32, p []byte)

// PMI is the program memory interface of a core: program scratchpad,
// optional instruction cache, and the fetch path onto the program bus.
// It mirrors the TriCore PMI unit.
type PMI struct {
	ICache *cache.Cache // nil = no instruction cache
	PSPR   *mem.RAM     // nil = no program scratchpad
	Bus    *bus.Bus     // program LMB (reaches the flash code port)
	Peek   Backdoor

	ctrs *sim.Counters
	req  bus.Request // scratch request (avoids per-access allocation)
	fill []byte      // scratch fill buffer
}

// FetchBlock performs a timed fetch of the aligned 8-byte block containing
// addr and returns the cycle at which its instructions may issue. Events
// are counted into the core's counter set.
func (p *PMI) FetchBlock(now uint64, addr uint32) uint64 {
	block := addr &^ 7
	if p.PSPR != nil && p.PSPR.Contains(block, 8) {
		// Program scratchpad (or PCP code RAM): single-cycle local fetch.
		p.ctrs.Inc(sim.EvIScratchAccess)
		return now
	}
	switch mem.Segment(addr) {
	case mem.FlashBase: // cached flash view
		if p.ICache == nil {
			return p.fetchUncached(now, block)
		}
		if p.ICache.Lookup(block) {
			return now
		}
		// Line fill over the program bus.
		line := block &^ (p.ICache.LineBytes() - 1)
		if p.fill == nil {
			p.fill = make([]byte, p.ICache.LineBytes())
		}
		p.req = bus.Request{Addr: line, Data: p.fill}
		done, err := p.Bus.Access(now, &p.req)
		if err != nil {
			panic(fmt.Sprintf("pmi: fetch fill failed: %v", err))
		}
		p.ctrs.Inc(sim.EvIFlashAccess)
		p.ICache.Fill(block)
		return done

	case mem.FlashUncach:
		return p.fetchUncached(now, block)

	default:
		panic(fmt.Sprintf("pmi: fetch from unsupported segment %#08x", addr))
	}
}

func (p *PMI) fetchUncached(now uint64, block uint32) uint64 {
	if p.fill == nil || len(p.fill) < 8 {
		p.fill = make([]byte, 8)
	}
	p.req = bus.Request{Addr: block, Data: p.fill[:8]}
	done, err := p.Bus.Access(now, &p.req)
	if err != nil {
		panic(fmt.Sprintf("pmi: uncached fetch failed: %v", err))
	}
	p.ctrs.Inc(sim.EvIFlashAccess)
	return done
}

// Word returns the instruction word at addr via the backdoor.
func (p *PMI) Word(addr uint32) uint32 {
	if p.PSPR != nil && p.PSPR.Contains(addr, 4) {
		return p.PSPR.Read32(addr)
	}
	var b [4]byte
	p.Peek(addr, b[:])
	return uint32(b[0]) | uint32(b[1])<<8 | uint32(b[2])<<16 | uint32(b[3])<<24
}

// DMI is the data memory interface of a core: data scratchpad, optional
// data cache, and the load/store path onto the data bus. It mirrors the
// TriCore DMI unit.
type DMI struct {
	DCache *cache.Cache // nil = no data cache
	DSPR   *mem.RAM     // nil = no data scratchpad
	Bus    *bus.Bus     // data LMB (reaches flash data port, SRAM, bridge)
	Peek   Backdoor

	ctrs *sim.Counters
	req  bus.Request // scratch request (avoids per-access allocation)
	fill []byte      // scratch line-fill buffer
}

// classify counts the region event for a data access that reaches the
// given physical address region over the bus.
func (d *DMI) classify(addr uint32, write bool) {
	switch mem.Segment(addr) {
	case mem.FlashBase, mem.FlashUncach:
		if !write {
			d.ctrs.Inc(sim.EvDFlashRead)
		}
	case mem.SRAMBase, mem.SRAMUncach:
		d.ctrs.Inc(sim.EvDSRAMAccess)
	case mem.PeriphBase, mem.PRAMBase:
		d.ctrs.Inc(sim.EvDPeriphAccess)
	}
}

// Load performs a timed data read of len(p) bytes at addr and returns the
// cycle at which the value is usable.
func (d *DMI) Load(now uint64, addr uint32, p []byte) uint64 {
	if d.DSPR != nil && d.DSPR.Contains(addr, len(p)) {
		d.ctrs.Inc(sim.EvDScratchAccess)
		d.DSPR.Read(addr, p)
		return now
	}
	seg := mem.Segment(addr)
	cacheable := seg == mem.FlashBase || seg == mem.SRAMBase
	if cacheable && d.DCache != nil {
		if d.DCache.Lookup(addr) {
			d.Peek(addr, p)
			return now
		}
		line := addr &^ (d.DCache.LineBytes() - 1)
		if d.fill == nil {
			d.fill = make([]byte, d.DCache.LineBytes())
		}
		d.req = bus.Request{Addr: line, Data: d.fill}
		done, err := d.Bus.Access(now, &d.req)
		if err != nil {
			panic(fmt.Sprintf("dmi: load fill failed: %v", err))
		}
		d.classify(addr, false)
		d.DCache.Fill(addr)
		d.Peek(addr, p)
		return done
	}
	d.req = bus.Request{Addr: addr, Data: p}
	done, err := d.Bus.Access(now, &d.req)
	if err != nil {
		panic(fmt.Sprintf("dmi: load failed: %v", err))
	}
	d.classify(addr, false)
	return done
}

// Store performs a timed data write (write-through, no-allocate) and
// returns the cycle at which the write is committed at the target.
func (d *DMI) Store(now uint64, addr uint32, p []byte) uint64 {
	if d.DSPR != nil && d.DSPR.Contains(addr, len(p)) {
		d.ctrs.Inc(sim.EvDScratchAccess)
		d.DSPR.Write(addr, p)
		return now
	}
	d.req = bus.Request{Addr: addr, Data: p, Write: true}
	done, err := d.Bus.Access(now, &d.req)
	if err != nil {
		panic(fmt.Sprintf("dmi: store failed: %v", err))
	}
	d.classify(addr, true)
	return done
}
