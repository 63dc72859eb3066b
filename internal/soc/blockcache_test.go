package soc_test

import (
	"testing"

	"repro/internal/soc"
	"repro/internal/workload"
)

// TestBlockCacheNeverDropsBlocks is the decoded-block cache's count gate
// on real traffic. The engine and tableheavy mixes run EEPROM emulation,
// whose flash writes reach Decoder.InvalidateRange while code is cached.
// None of those writes touches a cached block, and the working set fits
// the cache, so a run must build every block exactly once (misses equal
// the cached count), never flush for capacity, and never sever a chain
// link.
func TestBlockCacheNeverDropsBlocks(t *testing.T) {
	for _, mix := range []string{"engine", "tableheavy"} {
		t.Run(mix, func(t *testing.T) {
			spec, _ := workload.Mix(mix, 1)
			s := soc.New(soc.TC1797().WithED(), spec.Seed)
			app, err := workload.Build(s, spec)
			if err != nil {
				t.Fatal(err)
			}
			loads := s.Decoder.Stats().Invalidations
			app.RunFor(300_000)
			st := s.Decoder.Stats()
			if st.Invalidations == loads || st.ChainLinks == 0 {
				t.Fatalf("no run-time invalidation or no chain link to check: %+v", st)
			}
			if st.Misses != uint64(s.Decoder.Len()) || st.Evictions != 0 || st.ChainSevers != 0 {
				t.Fatalf("cached %d blocks, stats %+v: want misses == cached, 0 evictions, 0 severs",
					s.Decoder.Len(), st)
			}
		})
	}
}
