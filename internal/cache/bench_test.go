package cache

import (
	"testing"

	"repro/internal/sim"
)

func BenchmarkLookupHit(b *testing.B) {
	c := New(Config{Size: 16 << 10, LineBytes: 32, Ways: 2}, "i", new(sim.Counters))
	c.Fill(0x8000_0000)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		c.Lookup(0x8000_0000)
	}
}

func BenchmarkLookupMissFill(b *testing.B) {
	c := New(Config{Size: 16 << 10, LineBytes: 32, Ways: 2}, "i", new(sim.Counters))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		addr := uint32(i) * 32
		if !c.Lookup(addr) {
			c.Fill(addr)
		}
	}
}
