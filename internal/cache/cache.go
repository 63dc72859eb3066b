// Package cache models the CPU instruction and data caches: set-associative
// tag arrays with configurable size, line length and associativity, and LRU
// replacement.
//
// The caches are write-through (as in the TriCore 1.3 data cache), so the
// model keeps tags only and leaves the data in the backing store; a hit is
// purely a timing statement. This keeps the simulated SoC trivially
// coherent while preserving everything the profiling methodology measures:
// hit/miss/access event streams and miss-induced stall cycles.
package cache

import (
	"fmt"
	"math/bits"

	"repro/internal/sim"
)

// Config parameterizes a cache.
type Config struct {
	Size      uint32 // total capacity in bytes
	LineBytes uint32 // line length, power of two
	Ways      int    // associativity
}

// Sets returns the number of sets implied by the geometry.
func (c Config) Sets() uint32 { return c.Size / (c.LineBytes * uint32(c.Ways)) }

type line struct {
	valid   bool
	tag     uint32
	lastUse uint64
}

// Cache is a set-associative tag array.
type Cache struct {
	cfg      Config
	sets     uint32
	lines    []line // sets × ways
	useClock uint64
	counters *sim.Counters
	evI      [3]sim.Event // access/hit/miss events to report under

	// index fast path: LineBytes is always a power of two, and set counts
	// are in practice too. Divisions by non-constant uint32 dominate the
	// probe cost otherwise (Lookup sits on the per-cycle fetch path).
	lineShift uint32 // log2(LineBytes)
	setShift  uint32 // log2(sets) when setsPow2
	setMask   uint32 // sets-1 when setsPow2
	setsPow2  bool
	ways      uint32 // cfg.Ways, hoisted for the probe loop
}

// New builds a cache from cfg. kind selects which event classes lookups are
// reported under: "i" for the instruction cache, "d" for the data cache.
// ctrs is the counter set lookups are recorded into (typically the owning
// CPU's counters, so one observation block sees all core events); nil
// allocates a private set.
func New(cfg Config, kind string, ctrs *sim.Counters) *Cache {
	if cfg.LineBytes == 0 || cfg.LineBytes&(cfg.LineBytes-1) != 0 {
		panic("cache: LineBytes must be a power of two")
	}
	if cfg.Ways <= 0 || cfg.Size == 0 || cfg.Size%(cfg.LineBytes*uint32(cfg.Ways)) != 0 {
		panic(fmt.Sprintf("cache: inconsistent geometry %+v", cfg))
	}
	if ctrs == nil {
		ctrs = new(sim.Counters)
	}
	c := &Cache{
		cfg:      cfg,
		sets:     cfg.Sets(),
		lines:    make([]line, cfg.Sets()*uint32(cfg.Ways)),
		counters: ctrs,
	}
	c.ways = uint32(cfg.Ways)
	c.lineShift = uint32(bits.TrailingZeros32(cfg.LineBytes))
	if c.sets&(c.sets-1) == 0 {
		c.setsPow2 = true
		c.setShift = uint32(bits.TrailingZeros32(c.sets))
		c.setMask = c.sets - 1
	}
	switch kind {
	case "i":
		c.evI = [3]sim.Event{sim.EvICacheAccess, sim.EvICacheHit, sim.EvICacheMiss}
	case "d":
		c.evI = [3]sim.Event{sim.EvDCacheAccess, sim.EvDCacheHit, sim.EvDCacheMiss}
	default:
		panic("cache: kind must be \"i\" or \"d\"")
	}
	return c
}

// Counters exposes the counter set lookups are recorded into.
func (c *Cache) Counters() *sim.Counters { return c.counters }

func (c *Cache) index(addr uint32) (set, tag uint32) {
	lineNo := addr >> c.lineShift
	if c.setsPow2 {
		return lineNo & c.setMask, lineNo >> c.setShift
	}
	return lineNo % c.sets, lineNo / c.sets
}

func (c *Cache) set(set uint32) []line {
	w := uint32(c.cfg.Ways)
	return c.lines[set*w : set*w+w]
}

// Lookup probes the cache for addr, updating replacement state and the
// access/hit/miss counters. It returns true on hit. This is the hottest
// function in the whole simulator (the fetch path probes it on every
// block-crossing cycle), so the way slice is hoisted out of the scan.
func (c *Cache) Lookup(addr uint32) bool {
	c.useClock++
	set, tag := c.index(addr)
	c.counters.Inc(c.evI[0])
	for i := set * c.ways; i < (set+1)*c.ways; i++ {
		l := &c.lines[i]
		if l.valid && l.tag == tag {
			l.lastUse = c.useClock
			c.counters.Inc(c.evI[1])
			return true
		}
	}
	c.counters.Inc(c.evI[2])
	return false
}

// Fill installs the line containing addr in the first invalid way, or else
// in the least recently used one. It returns the byte address of the
// evicted line and whether an eviction of a valid line occurred.
func (c *Cache) Fill(addr uint32) (evicted uint32, didEvict bool) {
	c.useClock++
	set, tag := c.index(addr)
	ways := c.set(set)
	victim := 0
	for i := range ways {
		if !ways[i].valid {
			victim = i
			break
		}
		if ways[i].lastUse < ways[victim].lastUse {
			victim = i
		}
	}
	v := &ways[victim]
	if v.valid {
		evicted = (v.tag*c.sets + set) * c.cfg.LineBytes
		didEvict = true
	}
	*v = line{valid: true, tag: tag, lastUse: c.useClock}
	return evicted, didEvict
}

// InvalidateAll clears every line (power-on or cache-off transition).
func (c *Cache) InvalidateAll() {
	for i := range c.lines {
		c.lines[i] = line{}
	}
}

// LineBytes returns the configured line length.
func (c *Cache) LineBytes() uint32 { return c.cfg.LineBytes }
