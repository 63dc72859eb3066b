package isa

// This file is the decode-once half of the isa API. Decode remains the
// one-word reference primitive (disassemblers and differential tests use
// it); execution-facing consumers go through a Decoder, which amortizes
// decode cost across runs of straight-line code by caching decoded basic
// blocks keyed by their entry PC.

// DInstr is one decoded instruction inside a cached block, carrying
// what the per-cycle issue loop would otherwise re-derive from the word:
// the pipe class and the read-register set.
type DInstr struct {
	In      Instr
	Raw     uint32 // original fetched word (diagnostics use the raw word)
	Pipe    Pipe
	NRead   uint8
	Reads   [3]uint8
	Invalid bool // illegal instruction (see Instr.Valid); terminates the block
}

// MaxBlockInstrs bounds the length of a cached block. Blocks normally end
// at the first branch, HALT, or illegal word; straight-line runs
// longer than this are split, which only costs an extra lookup.
const MaxBlockInstrs = 64

// ChainSlots bounds the direct successor links a block may hold. Hot
// control flow has very low fan-out (a loop back edge, a call target, a
// return, a fall-through), so a handful of slots captures it; colder
// successors simply keep taking the keyed lookup.
const ChainSlots = 4

// chainLink is one direct block-to-block edge: "exiting this block to pc
// continues in b". gen records the decoder generation the link was
// installed at; a live link always carries the current generation, because
// every invalidation severs all links (the check is kept as defense in
// depth — following a stale link could execute dropped code).
type chainLink struct {
	pc  uint32
	gen uint64
	b   *Block
}

// Block is a decoded basic block: a run of instructions starting at PC
// with no control-flow entry except the first and ending at the first
// branch, HALT, illegal word, or the length cap. A branch *into* the
// middle of a block simply creates a second, overlapping block at that
// entry point.
type Block struct {
	PC  uint32
	Ins []DInstr

	// Chain state (owned by the Decoder): bounded successor links plus the
	// reverse edges needed to sever incoming links when this block dies.
	links  [ChainSlots]chainLink
	nlinks uint8
	preds  []*Block // blocks currently holding a link to this block
}

// DecoderStats counts cache traffic for diagnostics and tests.
type DecoderStats struct {
	Hits          uint64
	Misses        uint64
	Evictions     uint64
	Invalidations uint64
	ChainLinks    uint64 // block-to-block links installed
	ChainFollows  uint64 // lookups served by following a chain link
	ChainSevers   uint64 // links severed by invalidation or eviction
}

// DefaultBlockCacheSize is the block capacity a SoC-attached Decoder uses:
// generous for real firmware working sets, small enough that the map stays
// cache-friendly.
const DefaultBlockCacheSize = 1024

// Decoder owns a bounded PC-keyed cache of decoded basic blocks. It is the
// execution-facing decode API: cores ask it for the block at a PC and walk
// the pre-decoded instructions instead of calling Decode on every fetched
// word, every cycle.
//
// A Decoder is not safe for concurrent use; every simulated SoC owns one
// (shared between its cores, which tick on one goroutine).
//
// Correctness contract: any write that can change instruction words —
// flash programming, program loads, calibration overlay remaps — must
// invalidate, via InvalidateRange or InvalidateAll. The SoC assembly wires
// these hooks; see DESIGN.md §14.
type Decoder struct {
	blocks map[uint32]*Block
	fifo   []uint32 // insertion order for FIFO eviction
	max    int
	gen    uint64 // bumped on every invalidation; consumers key hints on it
	stats  DecoderStats
}

// NewDecoder returns a Decoder caching at most maxBlocks blocks (FIFO
// eviction). maxBlocks <= 0 selects DefaultBlockCacheSize.
func NewDecoder(maxBlocks int) *Decoder {
	if maxBlocks <= 0 {
		maxBlocks = DefaultBlockCacheSize
	}
	return &Decoder{
		blocks: make(map[uint32]*Block, maxBlocks),
		fifo:   make([]uint32, 0, maxBlocks),
		max:    maxBlocks,
	}
}

// Stats returns the cache traffic counters.
func (d *Decoder) Stats() DecoderStats { return d.stats }

// Len returns the number of cached blocks.
func (d *Decoder) Len() int { return len(d.blocks) }

// Gen returns the invalidation generation. It changes on every
// InvalidateRange/InvalidateAll, so a consumer holding a *Block pointer
// across cycles can cheaply detect that its hint may be stale.
func (d *Decoder) Gen() uint64 { return d.gen }

// Block returns the decoded basic block starting at pc, building and
// caching it on a miss. word supplies instruction words by address with no
// timing effects (the PMI backdoor); the builder reads at most
// MaxBlockInstrs words starting at pc.
func (d *Decoder) Block(pc uint32, word func(addr uint32) uint32) *Block {
	if b, ok := d.blocks[pc]; ok {
		d.stats.Hits++
		return b
	}
	d.stats.Misses++
	b := d.build(pc, word)
	d.insert(b)
	return b
}

// Next is the chained lookup: the block at pc, reached by exiting from.
// If from already links to pc at the current generation the link is
// followed directly — no map access. Otherwise it falls back to Block and,
// when from has a free slot, installs a link so the next traversal of this
// edge skips the lookup. from == nil degrades to a plain Block call.
//
// Links never outlive an invalidation (InvalidateRange/InvalidateAll sever
// every link before dropping blocks), so a followed link always targets a
// live block of the current generation. A capacity eviction severs only
// the victim's own links, which is safe: the victim stays a valid decode
// of unchanged memory, merely no longer cached.
func (d *Decoder) Next(from *Block, pc uint32, word func(addr uint32) uint32) *Block {
	if from != nil {
		for i := 0; i < int(from.nlinks); i++ {
			l := &from.links[i]
			if l.pc == pc && l.gen == d.gen {
				d.stats.ChainFollows++
				return l.b
			}
		}
	}
	b := d.Block(pc, word)
	if from != nil && from != b && int(from.nlinks) < ChainSlots {
		from.links[from.nlinks] = chainLink{pc: pc, gen: d.gen, b: b}
		from.nlinks++
		b.preds = append(b.preds, from)
		d.stats.ChainLinks++
	}
	return b
}

func (d *Decoder) build(pc uint32, word func(addr uint32) uint32) *Block {
	b := &Block{PC: pc}
	p := pc
	for len(b.Ins) < MaxBlockInstrs {
		w := word(p)
		in := Decode(w)
		di := DInstr{In: in, Raw: w}
		if !in.Valid() {
			di.Invalid = true
			b.Ins = append(b.Ins, di)
			break
		}
		di.Pipe = in.Op.Pipe()
		di.NRead = uint8(in.ReadRegs(&di.Reads))
		b.Ins = append(b.Ins, di)
		if in.Op.IsBranch() || in.Op == OpHALT {
			break
		}
		p += 4
	}
	return b
}

func (d *Decoder) insert(b *Block) {
	for len(d.blocks) >= d.max {
		// FIFO eviction; keys already removed by a range invalidation are
		// skipped (the fifo may briefly hold stale keys).
		victim := d.fifo[0]
		d.fifo = d.fifo[1:]
		if vb, ok := d.blocks[victim]; ok {
			d.unlink(vb)
			delete(d.blocks, victim)
			d.stats.Evictions++
		}
	}
	d.blocks[b.PC] = b
	d.fifo = append(d.fifo, b.PC)
}

// unlink severs every chain edge touching b: incoming links (compacted out
// of each predecessor's slot array, freeing the slots for relinking) and
// outgoing links (b removed from each target's pred list).
func (d *Decoder) unlink(b *Block) {
	for _, p := range b.preds {
		w := 0
		for i := 0; i < int(p.nlinks); i++ {
			if p.links[i].b == b {
				d.stats.ChainSevers++
				continue
			}
			p.links[w] = p.links[i]
			w++
		}
		for i := w; i < int(p.nlinks); i++ {
			p.links[i] = chainLink{}
		}
		p.nlinks = uint8(w)
	}
	b.preds = nil
	for i := 0; i < int(b.nlinks); i++ {
		t := b.links[i].b
		for j, p := range t.preds {
			if p == b {
				t.preds = append(t.preds[:j], t.preds[j+1:]...)
				break
			}
		}
		b.links[i] = chainLink{}
		d.stats.ChainSevers++
	}
	b.nlinks = 0
}

// severAllLinks drops every chain edge in the cache. Invalidation calls
// this before removing blocks so no link — whatever its generation — can
// survive into the next generation and pin a stale target or occupy a
// bounded slot forever.
func (d *Decoder) severAllLinks() {
	for _, b := range d.blocks {
		n := uint64(b.nlinks)
		d.stats.ChainSevers += n
		for i := 0; i < int(b.nlinks); i++ {
			b.links[i] = chainLink{}
		}
		b.nlinks = 0
		b.preds = nil
	}
}

// InvalidateAll drops every cached block and bumps the generation. Called
// when code memory changed in a way not attributable to a range (overlay
// remaps, whole-image loads).
func (d *Decoder) InvalidateAll() {
	d.gen++
	d.stats.Invalidations++
	if len(d.blocks) == 0 {
		d.fifo = d.fifo[:0]
		return
	}
	d.severAllLinks()
	for pc := range d.blocks {
		delete(d.blocks, pc)
	}
	d.fifo = d.fifo[:0]
}

// InvalidateRange drops every cached block overlapping [addr, addr+n) and
// bumps the generation. Flash programming and program loads call this with
// the written window.
func (d *Decoder) InvalidateRange(addr uint32, n uint32) {
	if n == 0 {
		return
	}
	d.gen++
	d.stats.Invalidations++
	// Any generation bump invalidates every link (consumers key chain hints
	// on the generation), so sever them all rather than only those touching
	// dropped blocks — a survivor's stale-generation links would otherwise
	// occupy its bounded slots forever.
	d.severAllLinks()
	lo, hi := uint64(addr), uint64(addr)+uint64(n)
	removed := false
	for pc, b := range d.blocks {
		start, end := uint64(pc), uint64(pc)+4*uint64(len(b.Ins))
		if start < hi && end > lo {
			delete(d.blocks, pc)
			removed = true
		}
	}
	if removed {
		// Compact the eviction queue, preserving insertion order so the
		// eviction sequence stays deterministic.
		keep := d.fifo[:0]
		for _, pc := range d.fifo {
			if _, ok := d.blocks[pc]; ok {
				keep = append(keep, pc)
			}
		}
		d.fifo = keep
	}
}

// ReadRegs stores the registers the instruction reads into regs and
// returns how many there are. It is allocation-free: the issue logic runs
// it for every instruction (once per execution on the per-word path, once
// per block build on the cached path).
func (in Instr) ReadRegs(regs *[3]uint8) int {
	switch in.Op {
	case OpNOP, OpMOVI, OpMOVH, OpJ, OpRFE, OpHALT, OpDBG, OpCALL, OpMFCR:
		return 0
	case OpORIL:
		regs[0] = in.Rd
		return 1
	case OpMAC:
		regs[0], regs[1], regs[2] = in.Rd, in.Ra, in.Rb
		return 3
	case OpSTW, OpSTB:
		regs[0], regs[1] = in.Rd, in.Ra
		return 2
	case OpLDW, OpLDB, OpLEA, OpJR, OpLOOP, OpMTCR,
		OpADDI, OpANDI, OpORI, OpXORI, OpSHLI, OpSHRI, OpSLTI:
		regs[0] = in.Ra
		return 1
	default: // branches and three-register ALU
		regs[0], regs[1] = in.Ra, in.Rb
		return 2
	}
}
