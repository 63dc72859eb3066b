package isa

import (
	"encoding/binary"
	"sort"
	"testing"
)

// cachedPCs returns the entry PCs of all cached blocks in ascending order.
func cachedPCs(d *Decoder) []uint32 {
	pcs := make([]uint32, 0, len(d.blocks))
	for pc := range d.blocks {
		pcs = append(pcs, pc)
	}
	sort.Slice(pcs, func(i, j int) bool { return pcs[i] < pcs[j] })
	return pcs
}

// memWord adapts a word slice at base to the Decoder's word callback.
// Addresses beyond the slice read as zero (OpNOP), like erased memory.
func memWord(base uint32, words []uint32) func(uint32) uint32 {
	return func(addr uint32) uint32 {
		i := (addr - base) / 4
		if i >= uint32(len(words)) {
			return 0
		}
		return words[i]
	}
}

func encodeAll(ins []Instr) []uint32 {
	ws := make([]uint32, len(ins))
	for i, in := range ins {
		ws[i] = in.Encode()
	}
	return ws
}

func TestDecoderBlockTermination(t *testing.T) {
	const base = 0x8000_0000
	cases := []struct {
		name    string
		words   []uint32
		wantLen int
		invalid bool
	}{
		{"branch", encodeAll([]Instr{
			{Op: OpADDI, Rd: 2, Ra: 2, Imm: 1},
			{Op: OpBEQ, Ra: 2, Rb: 3, Imm: 4},
			{Op: OpNOP}, // unreachable from this entry
		}), 2, false},
		{"halt", encodeAll([]Instr{
			{Op: OpNOP},
			{Op: OpHALT},
			{Op: OpNOP},
		}), 2, false},
		{"invalid", []uint32{
			Instr{Op: OpNOP}.Encode(),
			0xFF00_0000, // opcode 0xFF does not decode
		}, 2, true},
		{"jump24", encodeAll([]Instr{
			{Op: OpJ, Off24: -3},
		}), 1, false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			d := NewDecoder()
			b := d.Block(base, memWord(base, tc.words))
			if b.PC != base {
				t.Fatalf("block PC = %#x, want %#x", b.PC, base)
			}
			if len(b.Ins) != tc.wantLen {
				t.Fatalf("block length = %d, want %d", len(b.Ins), tc.wantLen)
			}
			last := b.Ins[len(b.Ins)-1]
			if last.Invalid != tc.invalid {
				t.Fatalf("last.Invalid = %v, want %v", last.Invalid, tc.invalid)
			}
			if tc.invalid && last.Raw != tc.words[len(b.Ins)-1] {
				t.Fatalf("invalid terminator Raw = %#x, want %#x", last.Raw, tc.words[len(b.Ins)-1])
			}
		})
	}
}

func TestDecoderBlockLengthCap(t *testing.T) {
	const base = 0x8000_0000
	d := NewDecoder()
	// All-zero memory: every word decodes as NOP, so the only terminator is
	// the length cap.
	b := d.Block(base, func(uint32) uint32 { return 0 })
	if len(b.Ins) != MaxBlockInstrs {
		t.Fatalf("block length = %d, want cap %d", len(b.Ins), MaxBlockInstrs)
	}
	for i, di := range b.Ins {
		if di.In.Op != OpNOP || di.Invalid {
			t.Fatalf("ins[%d] = %+v, want NOP", i, di)
		}
	}
}

func TestDecoderHitMissStats(t *testing.T) {
	const base = 0x8000_0000
	words := encodeAll([]Instr{{Op: OpNOP}, {Op: OpHALT}})
	d := NewDecoder()
	w := memWord(base, words)
	b1 := d.Block(base, w)
	b2 := d.Block(base, w)
	if b1 != b2 {
		t.Fatal("second lookup did not hit the cached block")
	}
	if st := d.Stats(); st.Hits != 1 || st.Misses != 1 {
		t.Fatalf("stats = %+v, want 1 hit / 1 miss", st)
	}
	if d.Len() != 1 {
		t.Fatalf("Len = %d, want 1", d.Len())
	}
}

func TestDecoderInvalidateRange(t *testing.T) {
	const base = 0x8000_0000
	words := encodeAll([]Instr{
		{Op: OpNOP}, {Op: OpNOP}, {Op: OpNOP}, {Op: OpHALT},
	})
	d := NewDecoder()
	w := memWord(base, words)
	d.Block(base, w)   // covers [base, base+16)
	d.Block(base+8, w) // covers [base+8, base+16)
	d.Block(base+0x100, func(uint32) uint32 { return Instr{Op: OpHALT}.Encode() })
	gen := d.Gen()

	// A write touching no cached block changes nothing: every block
	// stays and the generation holds. The window ends where the first
	// block starts and starts where the second block ends.
	d.InvalidateRange(base-8, 8)
	d.InvalidateRange(base+16, 0x100-16)
	if d.Len() != 3 {
		t.Fatalf("Len after non-overlapping ranges = %d, want 3", d.Len())
	}
	if d.Gen() != gen {
		t.Fatal("non-overlapping InvalidateRange bumped the generation")
	}

	// n == 0 is a no-op, even over a cached block.
	d.InvalidateRange(base, 0)
	if d.Len() != 3 || d.Gen() != gen {
		t.Fatalf("zero-length invalidation: Len = %d, gen changed = %v", d.Len(), d.Gen() != gen)
	}

	// Wrap-around near the top of the address space must not overflow.
	d.InvalidateRange(0xFFFF_FFFC, 16)
	if d.Len() != 3 || d.Gen() != gen {
		t.Fatalf("high-address range: Len = %d, gen changed = %v", d.Len(), d.Gen() != gen)
	}

	// One byte into the second block's window flushes every block, the
	// distant one too, and bumps the generation.
	d.InvalidateRange(base+9, 1)
	if d.Len() != 0 {
		t.Fatalf("Len after overlap = %d, want 0 (got PCs %#x)", d.Len(), cachedPCs(d))
	}
	if d.Gen() == gen {
		t.Fatal("overlapping InvalidateRange did not bump the generation")
	}
	if st := d.Stats(); st.Invalidations != 4 || st.Evictions != 0 {
		t.Fatalf("stats = %+v, want 4 invalidations (n == 0 uncounted), 0 evictions", st)
	}
}

func TestDecoderInvalidateAll(t *testing.T) {
	const base = 0x8000_0000
	d := NewDecoder()
	halt := func(uint32) uint32 { return Instr{Op: OpHALT}.Encode() }
	d.Block(base, halt)
	d.Block(base+0x40, halt)
	gen := d.Gen()
	d.InvalidateAll()
	if d.Len() != 0 {
		t.Fatalf("Len after InvalidateAll = %d, want 0", d.Len())
	}
	if d.Gen() == gen {
		t.Fatal("generation did not change on InvalidateAll")
	}
	if st := d.Stats(); st.Invalidations == 0 {
		t.Fatal("Invalidations not counted")
	}
}

func TestDecoderFullCacheFlushes(t *testing.T) {
	halt := func(uint32) uint32 { return Instr{Op: OpHALT}.Encode() }
	d := NewDecoder()
	for i := uint32(0); i < maxBlocks; i++ {
		d.Block(0x8000_0000+i*4, halt)
	}
	gen := d.Gen()
	if d.Len() != maxBlocks || d.Stats().Evictions != 0 {
		t.Fatalf("filling the cache: Len = %d, stats %+v", d.Len(), d.Stats())
	}
	// A hit on a full cache changes nothing.
	from := d.Block(0x8000_0000, halt)
	if d.Len() != maxBlocks || d.Gen() != gen {
		t.Fatal("a hit on a full cache flushed it")
	}
	// A miss on a full cache flushes every block, then caches the new one.
	// The flush retires from, so the miss links nothing to it.
	b := d.Next(from, 0x9000_0000, halt)
	if pcs := cachedPCs(d); len(pcs) != 1 || pcs[0] != b.PC {
		t.Fatalf("cached PCs after full-cache miss = %#x, want [%#x]", pcs, b.PC)
	}
	if d.Gen() == gen {
		t.Fatal("full-cache flush did not bump the generation")
	}
	if st := d.Stats(); st.Evictions != maxBlocks || st.Misses != maxBlocks+1 || st.Invalidations != 0 || st.ChainLinks != 0 {
		t.Fatalf("stats = %+v, want %d evictions, %d misses, 0 invalidations, 0 links", st, maxBlocks, maxBlocks+1)
	}
}

// TestReadRegsMatchesSemantics cross-checks the static read-set against the
// operand fields each opcode actually uses, for every valid opcode.
func TestReadRegsMatchesSemantics(t *testing.T) {
	in := Instr{Rd: 3, Ra: 5, Rb: 7}
	for op := Op(0); int(op) < NumOps; op++ {
		if !op.Valid() {
			continue
		}
		in.Op = op
		var regs [3]uint8
		n := in.ReadRegs(&regs)
		if n < 0 || n > 3 {
			t.Fatalf("%v: ReadRegs returned %d", op, n)
		}
		has := func(r uint8) bool {
			for i := 0; i < n; i++ {
				if regs[i] == r {
					return true
				}
			}
			return false
		}
		// Stores and MAC read Rd; ORIL reads its own Rd.
		wantRd := op.IsStore() || op == OpMAC || op == OpORIL
		if has(in.Rd) != wantRd && in.Rd != in.Ra && in.Rd != in.Rb {
			t.Errorf("%v: reads Rd = %v, want %v", op, has(in.Rd), wantRd)
		}
	}
}

// FuzzDecoderBlock: building a block from arbitrary bytes never panics,
// every decoded entry agrees with the one-word reference Decode, the block
// respects its termination contract, and a rebuild after invalidation is
// identical.
func FuzzDecoderBlock(f *testing.F) {
	f.Add([]byte{0, 0, 0, 0})
	f.Add([]byte{0xFF, 0xFF, 0xFF, 0xFF})
	ins := []Instr{
		{Op: OpLDW, Rd: 4, Ra: 1, Imm: 8},
		{Op: OpADDI, Rd: 5, Ra: 4, Imm: 1},
		{Op: OpSTW, Rd: 5, Ra: 1, Imm: 8},
		{Op: OpLOOP, Ra: 9, Imm: -3},
	}
	seed := make([]byte, 4*len(ins))
	for i, in := range ins {
		binary.LittleEndian.PutUint32(seed[4*i:], in.Encode())
	}
	f.Add(seed)
	f.Fuzz(func(t *testing.T, data []byte) {
		const base = 0x8000_0000
		word := func(addr uint32) uint32 {
			i := int(addr-base) * 1 // byte offset
			var w uint32
			for b := 0; b < 4; b++ {
				if i+b < len(data) {
					w |= uint32(data[i+b]) << (8 * b)
				}
			}
			return w
		}
		d := NewDecoder()
		blk := d.Block(base, word)
		if len(blk.Ins) == 0 || len(blk.Ins) > MaxBlockInstrs {
			t.Fatalf("block length %d out of range", len(blk.Ins))
		}
		for i, di := range blk.Ins {
			ref := Decode(di.Raw)
			if di.Invalid == ref.Valid() {
				t.Fatalf("ins[%d] (%#08x) Invalid = %v, reference Valid = %v", i, di.Raw, di.Invalid, ref.Valid())
			}
			if di.Invalid {
				if i != len(blk.Ins)-1 {
					t.Fatalf("invalid entry %d is not the terminator", i)
				}
				continue
			}
			if di.In != ref {
				t.Fatalf("ins[%d] = %+v, reference decode %+v", i, di.In, ref)
			}
			if di.Pipe != ref.Op.Pipe() {
				t.Fatalf("ins[%d] pipe %v, want %v", i, di.Pipe, ref.Op.Pipe())
			}
			var regs [3]uint8
			if n := ref.ReadRegs(&regs); n != int(di.NRead) || regs != di.Reads {
				t.Fatalf("ins[%d] reads %v/%d, want %v/%d", i, di.Reads, di.NRead, regs, n)
			}
			// Only the last entry may be a block terminator.
			if i != len(blk.Ins)-1 && (ref.Op.IsBranch() || ref.Op == OpHALT) {
				t.Fatalf("branch/halt at %d is not the terminator", i)
			}
		}
		// Rebuilding after invalidation must give an identical block.
		gen := d.Gen()
		d.InvalidateRange(base, uint32(4*len(blk.Ins)))
		if d.Gen() == gen {
			t.Fatal("invalidation did not bump generation")
		}
		again := d.Block(base, word)
		if len(again.Ins) != len(blk.Ins) {
			t.Fatalf("rebuild length %d, want %d", len(again.Ins), len(blk.Ins))
		}
		for i := range blk.Ins {
			if again.Ins[i] != blk.Ins[i] {
				t.Fatalf("rebuild ins[%d] = %+v, want %+v", i, again.Ins[i], blk.Ins[i])
			}
		}
	})
}

func TestDecoderChainNext(t *testing.T) {
	const base = 0x8000_0000
	words := encodeAll([]Instr{
		{Op: OpJ, Off24: 1}, // block A
		{Op: OpJ, Off24: 1}, // block B
		{Op: OpHALT},        // block C
	})
	w := memWord(base, words)
	d := NewDecoder()
	a := d.Block(base, w)

	// First traversal of the edge: fallback lookup plus link install.
	b := d.Next(a, base+4, w)
	if b.PC != base+4 {
		t.Fatalf("Next returned block at %#x, want %#x", b.PC, base+4)
	}
	if st := d.Stats(); st.ChainLinks != 1 || st.ChainFollows != 0 {
		t.Fatalf("after install: %+v", st)
	}

	// Second traversal: served by the link, no map access needed.
	if b2 := d.Next(a, base+4, w); b2 != b {
		t.Fatalf("Next did not follow the installed link")
	}
	if st := d.Stats(); st.ChainFollows != 1 {
		t.Fatalf("after follow: %+v", st)
	}

	// nil from degrades to a plain Block lookup.
	if c := d.Next(nil, base+8, w); c.PC != base+8 {
		t.Fatalf("Next(nil, ...) returned block at %#x", c.PC)
	}

	// A block never links to itself.
	if x := d.Next(a, base, w); x != a {
		t.Fatalf("Next(a, a.PC) did not return a")
	}
	if st := d.Stats(); st.ChainLinks != 1 {
		t.Fatalf("self-edge installed a link: %+v", st)
	}
}

func TestDecoderChainSlotsBounded(t *testing.T) {
	halt := func(uint32) uint32 { return Instr{Op: OpHALT}.Encode() }
	d := NewDecoder()
	from := d.Block(0x1000, halt)
	for i := 1; i <= ChainSlots+2; i++ {
		d.Next(from, 0x1000+uint32(i)*0x100, halt)
	}
	if got := d.Stats().ChainLinks; got != uint64(ChainSlots) {
		t.Fatalf("ChainLinks = %d, want %d (slots must bound installs)", got, ChainSlots)
	}
	// A linked target follows; an overflow target keeps taking the lookup.
	before := d.Stats().ChainFollows
	d.Next(from, 0x1100, halt)
	if d.Stats().ChainFollows != before+1 {
		t.Fatal("linked edge was not followed")
	}
	d.Next(from, 0x1000+uint32(ChainSlots+1)*0x100, halt)
	if d.Stats().ChainFollows != before+1 {
		t.Fatal("overflow edge followed a link that must not exist")
	}
}

func TestDecoderChainSeverOnInvalidate(t *testing.T) {
	const base = 0x8000_0000
	words := encodeAll([]Instr{
		{Op: OpJ, Off24: 1},
		{Op: OpHALT},
	})
	w := memWord(base, words)

	t.Run("range", func(t *testing.T) {
		d := NewDecoder()
		a := d.Block(base, w)
		b := d.Next(a, base+4, w)
		// A window overlapping neither block keeps the blocks and the
		// link: the next traversal still follows it.
		d.InvalidateRange(base+0x1000, 4)
		if d.Next(a, base+4, w) != b || d.Stats().ChainFollows != 1 {
			t.Fatalf("non-overlapping invalidation broke the link: %+v", d.Stats())
		}
		// A window overlapping the target flushes: the link is severed
		// with the blocks.
		d.InvalidateRange(base+4, 4)
		if st := d.Stats(); st.ChainSevers != 1 || d.Len() != 0 {
			t.Fatalf("after overlap: Len = %d, stats %+v, want 1 sever", d.Len(), st)
		}
	})

	t.Run("all", func(t *testing.T) {
		d := NewDecoder()
		a := d.Block(base, w)
		d.Next(a, base+4, w)
		d.InvalidateAll()
		if st := d.Stats(); st.ChainSevers != 1 {
			t.Fatalf("ChainSevers = %d, want 1: %+v", st.ChainSevers, st)
		}
		// Links installed after the flush count toward the next one only.
		a = d.Block(base, w)
		d.Next(a, base+4, w)
		d.InvalidateAll()
		if st := d.Stats(); st.ChainSevers != 2 || st.ChainLinks != 2 {
			t.Fatalf("second flush: %+v, want 2 links and 2 severs", st)
		}
	})
}

// TestDecoderStaleFromIgnored: a block retired by a flush and handed back
// to Next as from is treated as nil. Its old link is not followed and it
// gets no new one, while the current block at its PC chains as usual.
func TestDecoderStaleFromIgnored(t *testing.T) {
	const base = 0x8000_0000
	words := encodeAll([]Instr{
		{Op: OpJ, Off24: 1},
		{Op: OpHALT},
	})
	w := memWord(base, words)
	d := NewDecoder()
	old := d.Block(base, w)
	oldB := d.Next(old, base+4, w)
	d.InvalidateAll()

	b := d.Next(old, base+4, w)
	if b == oldB {
		t.Fatal("Next followed a link of a flushed block")
	}
	if st := d.Stats(); st.ChainFollows != 0 || st.ChainLinks != 1 || st.Misses != 3 {
		t.Fatalf("stale from: %+v, want no follow, no new link, a fresh miss", st)
	}
	if d.Next(old, base+4, w) != b || d.Stats().Hits != 1 {
		t.Fatalf("stale from did not degrade to a plain lookup: %+v", d.Stats())
	}
	a := d.Block(base, w)
	if a == old {
		t.Fatal("flushed block still cached")
	}
	d.Next(a, base+4, w)
	if d.Next(a, base+4, w) != b || d.Stats().ChainFollows != 1 {
		t.Fatalf("current block did not chain: %+v", d.Stats())
	}
}
