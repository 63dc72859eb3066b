package cache

import (
	"testing"
	"testing/quick"

	"repro/internal/sim"
)

// Probe reports whether addr would hit, without touching replacement state
// or counters: the ground truth the tests below assert against.
func (c *Cache) Probe(addr uint32) bool {
	set, tag := c.index(addr)
	ways := c.set(set)
	for i := range ways {
		l := &ways[i]
		if l.valid && l.tag == tag {
			return true
		}
	}
	return false
}

func cfg4x2() Config {
	// 4 sets × 2 ways × 16-byte lines = 128 bytes.
	return Config{Size: 128, LineBytes: 16, Ways: 2}
}

func TestMissThenHit(t *testing.T) {
	c := New(cfg4x2(), "i", nil)
	if c.Lookup(0x100) {
		t.Fatal("cold cache must miss")
	}
	c.Fill(0x100)
	if !c.Lookup(0x104) {
		t.Fatal("same line must hit")
	}
	ctr := c.Counters()
	if ctr.Get(sim.EvICacheAccess) != 2 || ctr.Get(sim.EvICacheHit) != 1 || ctr.Get(sim.EvICacheMiss) != 1 {
		t.Errorf("counters = %d/%d/%d", ctr.Get(sim.EvICacheAccess),
			ctr.Get(sim.EvICacheHit), ctr.Get(sim.EvICacheMiss))
	}
}

func TestDKindUsesDataEvents(t *testing.T) {
	c := New(cfg4x2(), "d", nil)
	c.Lookup(0)
	if c.Counters().Get(sim.EvDCacheMiss) != 1 {
		t.Error("d-kind must count data events")
	}
	if c.Counters().Get(sim.EvICacheMiss) != 0 {
		t.Error("d-kind must not count instruction events")
	}
}

func TestLRUEviction(t *testing.T) {
	c := New(cfg4x2(), "i", nil)
	// Three lines mapping to set 0: line numbers 0, 4, 8 (4 sets).
	a0, a1, a2 := uint32(0*16), uint32(4*16), uint32(8*16)
	c.Lookup(a0)
	c.Fill(a0)
	c.Lookup(a1)
	c.Fill(a1)
	c.Lookup(a0) // a0 is now MRU
	ev, did := c.Fill(a2)
	if !did || ev != a1 {
		t.Errorf("evicted %#x (did=%v), want %#x", ev, did, a1)
	}
	if !c.Probe(a0) || c.Probe(a1) || !c.Probe(a2) {
		t.Error("wrong lines resident after eviction")
	}
}

func TestFillPrefersInvalidWay(t *testing.T) {
	c := New(cfg4x2(), "i", nil)
	c.Fill(0)
	if _, did := c.Fill(4 * 16); did {
		t.Error("second fill must use the empty way, not evict")
	}
}

func TestInvalidateAll(t *testing.T) {
	c := New(cfg4x2(), "i", nil)
	c.Fill(0)
	c.InvalidateAll()
	if c.Probe(0) {
		t.Error("line survived InvalidateAll")
	}
}

func TestGeometryValidation(t *testing.T) {
	bad := []Config{
		{Size: 100, LineBytes: 16, Ways: 2}, // size not divisible
		{Size: 128, LineBytes: 12, Ways: 2}, // line not pow2
		{Size: 128, LineBytes: 16, Ways: 0}, // no ways
	}
	for _, cfg := range bad {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("config %+v must panic", cfg)
				}
			}()
			New(cfg, "i", nil)
		}()
	}
}

func TestHitRate(t *testing.T) {
	c := New(cfg4x2(), "i", nil)
	ctr := c.Counters()
	c.Lookup(0) // miss
	c.Fill(0)
	for i := 0; i < 3; i++ {
		c.Lookup(0) // hits
	}
	acc, hit, miss := ctr.Get(sim.EvICacheAccess), ctr.Get(sim.EvICacheHit), ctr.Get(sim.EvICacheMiss)
	if acc != 4 || hit != 3 || miss != 1 {
		t.Errorf("access/hit/miss = %d/%d/%d, want 4/3/1", acc, hit, miss)
	}
}

// Property: after Fill(addr), Lookup(addr) hits; a second Lookup of an
// address in the same line also hits; accesses never disturb other sets.
func TestFillLookupProperty(t *testing.T) {
	f := func(addrs []uint32) bool {
		c := New(Config{Size: 1024, LineBytes: 32, Ways: 4}, "d", nil)
		for _, a := range addrs {
			if !c.Lookup(a) {
				c.Fill(a)
			}
			if !c.Probe(a) {
				return false
			}
			if !c.Lookup(a ^ 3) { // same line (flip low bits)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: the number of resident lines never exceeds capacity.
func TestCapacityInvariant(t *testing.T) {
	f := func(addrs []uint32) bool {
		cfg := Config{Size: 256, LineBytes: 16, Ways: 2}
		c := New(cfg, "i", nil)
		for _, a := range addrs {
			c.Fill(a)
		}
		resident := 0
		for i := range c.lines {
			if c.lines[i].valid {
				resident++
			}
		}
		return resident <= int(cfg.Size/cfg.LineBytes)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}
