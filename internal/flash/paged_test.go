package flash

import (
	"bytes"
	"testing"

	"repro/internal/bus"
	"repro/internal/sim"
)

// TestPagedArrayMatchesFlatOracle drives the paged array and a flat []byte
// with the same random Loads, bus writes, bus reads and direct reads,
// biased to windows that straddle page boundaries and the array end (the
// array is not a whole number of pages).
func TestPagedArrayMatchesFlatOracle(t *testing.T) {
	cfg := testCfg()
	cfg.Size = 5*pageSize + 1000
	f := New(cfg)
	flat := make([]byte, cfg.Size)
	rng := sim.NewRNG(7)

	// window picks an offset and length: near a page boundary or the end
	// of the array most of the time, anywhere otherwise.
	window := func(maxLen int) (uint32, int) {
		n := rng.Range(1, maxLen)
		var off int
		switch rng.Intn(3) {
		case 0:
			off = rng.Range(1, 5)*pageSize - rng.Range(0, n)
		case 1:
			off = int(cfg.Size) - rng.Range(0, n+8)
		default:
			off = rng.Intn(int(cfg.Size))
		}
		return uint32(max(off, 0)), n
	}
	fits := func(off uint32, n int) bool { return int(off)+n <= int(cfg.Size) }
	random := func(n int) []byte {
		p := make([]byte, n)
		for i := range p {
			p[i] = byte(rng.Uint64())
		}
		return p
	}
	now := uint64(0)
	for i := 0; i < 20_000; i++ {
		now += 1000 // past any write occupancy: content is all that matters
		off, n := window(64)
		switch rng.Intn(4) {
		case 0: // host Load (large images too)
			if rng.Bool(0.1) {
				n = rng.Range(pageSize, 3*pageSize)
			}
			if !fits(off, n) {
				continue
			}
			img := random(n)
			f.Load(base+off, img)
			copy(flat[off:], img)
		case 1: // bus write
			if !fits(off, n) {
				continue
			}
			req := &bus.Request{Addr: base + off, Data: random(n), Write: true}
			copy(flat[off:], req.Data)
			f.DataPort().Access(now, req)
		case 2: // bus read on either port
			if !fits(off, n) {
				continue
			}
			req := &bus.Request{Addr: base + off, Data: random(n)}
			port := f.CodePort()
			if rng.Bool(0.5) {
				port = f.DataPort()
			}
			port.Access(now, req)
			if !bytes.Equal(req.Data, flat[off:int(off)+n]) {
				t.Fatalf("op %d: bus read %#x+%d = %x, oracle %x", i, off, n, req.Data, flat[off:int(off)+n])
			}
		case 3: // direct read, possibly running past the end
			got, want := random(n), make([]byte, n)
			copy(want, got)
			copy(want, flat[off:])
			f.ReadDirect(base+off, got)
			if !bytes.Equal(got, want) {
				t.Fatalf("op %d: direct read %#x+%d = %x, oracle %x", i, off, n, got, want)
			}
		}
	}
	full := make([]byte, cfg.Size)
	f.ReadDirect(base, full)
	if !bytes.Equal(full, flat) {
		t.Fatal("final array content differs from the oracle")
	}
}

func TestUnwrittenPagesReadZeroWithoutAllocating(t *testing.T) {
	cfg := testCfg()
	f := New(cfg)
	f.Load(base+pageSize+10, []byte{1, 2, 3})
	for i, pg := range f.pages {
		if (pg != nil) != (i == 1) {
			t.Fatalf("page %d allocated=%v after a load into page 1 only", i, pg != nil)
		}
	}
	p := []byte{9, 9, 9, 9, 9, 9, 9, 9}
	// A window straddling an unwritten page and the written one.
	f.ReadDirect(base+pageSize-4, p)
	if want := []byte{0, 0, 0, 0, 0, 0, 0, 0}; !bytes.Equal(p, want) {
		t.Fatalf("read across unwritten page 0 = %v, want %v", p, want)
	}
	req := &bus.Request{Addr: base + 3*pageSize, Data: make([]byte, 8)}
	allocs := testing.AllocsPerRun(100, func() {
		f.ReadDirect(base+2*pageSize+100, p)
		f.DataPort().Access(0, req)
	})
	if allocs != 0 {
		t.Errorf("reads of unwritten pages allocated %.1f times per run", allocs)
	}
	for i, pg := range f.pages {
		if i != 1 && pg != nil {
			t.Errorf("reading page %d allocated it", i)
		}
	}
}

func TestOutOfArrayLoadAndDirectReadPanic(t *testing.T) {
	cfg := testCfg()
	for name, op := range map[string]func(f *Flash){
		"load past the end":   func(f *Flash) { f.Load(base+cfg.Size-2, []byte{1, 2, 3}) },
		"load below the base": func(f *Flash) { f.Load(base-4, []byte{1}) },
		"direct read past the end": func(f *Flash) {
			f.ReadDirect(base+cfg.Size+1, make([]byte, 4))
		},
		"bus write past the end": func(f *Flash) {
			f.DataPort().Access(0, &bus.Request{Addr: base + cfg.Size - 2, Data: make([]byte, 4), Write: true})
		},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s must panic", name)
				}
			}()
			op(New(cfg))
		}()
	}
}
