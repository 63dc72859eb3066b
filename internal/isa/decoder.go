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

// maxBlocks is the number of blocks a Decoder holds before a miss flushes
// it: generous for real firmware working sets (the largest mix caches ~700
// blocks), small enough that the map stays cache-friendly.
const maxBlocks = 1024

// chainLink is one direct block-to-block edge: "exiting this block to pc
// continues in b".
type chainLink struct {
	pc uint32
	b  *Block
}

// Block is a decoded basic block: a run of instructions starting at PC
// with no control-flow entry except the first and ending at the first
// branch, HALT, illegal word, or the length cap. A branch *into* the
// middle of a block simply creates a second, overlapping block at that
// entry point.
type Block struct {
	PC  uint32
	Ins []DInstr

	// Chain state (owned by the Decoder): the generation the block was
	// built in and its bounded successor links. A flush bumps the
	// generation, which retires the block and every link it holds.
	gen    uint64
	links  [ChainSlots]chainLink
	nlinks uint8
}

// DecoderStats counts cache traffic for diagnostics and tests.
type DecoderStats struct {
	Hits          uint64
	Misses        uint64
	Evictions     uint64 // blocks dropped by capacity flushes
	Invalidations uint64 // InvalidateAll calls and non-empty InvalidateRange calls
	ChainLinks    uint64 // block-to-block links installed
	ChainFollows  uint64 // lookups served by following a chain link
	ChainSevers   uint64 // links dropped by any flush
}

// Decoder owns a bounded PC-keyed cache of decoded basic blocks. It is the
// execution-facing decode API: cores ask it for the block at a PC and walk
// the pre-decoded instructions instead of calling Decode on every fetched
// word, every cycle.
//
// The cache has one invalidation rule, a flush: every block is dropped and
// the generation bumped. A flush happens when InvalidateRange overlaps a
// cached block, on InvalidateAll, and when a miss finds maxBlocks
// blocks cached. Because a flush leaves no block behind, no chain link can
// outlive its target.
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
	gen    uint64 // bumped on every flush; consumers key hints on it
	links  uint64 // links installed since the last flush
	stats  DecoderStats
}

// NewDecoder returns an empty Decoder.
func NewDecoder() *Decoder {
	return &Decoder{blocks: make(map[uint32]*Block, maxBlocks)}
}

// Stats returns the cache traffic counters.
func (d *Decoder) Stats() DecoderStats { return d.stats }

// Len returns the number of cached blocks.
func (d *Decoder) Len() int { return len(d.blocks) }

// Gen returns the flush generation. It changes on every flush, so a
// consumer holding a *Block pointer across cycles can cheaply detect that
// its hint may be stale.
func (d *Decoder) Gen() uint64 { return d.gen }

// Block returns the decoded basic block starting at pc, building and
// caching it on a miss (flushing first if the cache is full). word
// supplies instruction words by address with no timing effects (the PMI
// backdoor); the builder reads at most MaxBlockInstrs words starting at pc.
func (d *Decoder) Block(pc uint32, word func(addr uint32) uint32) *Block {
	if b, ok := d.blocks[pc]; ok {
		d.stats.Hits++
		return b
	}
	d.stats.Misses++
	if len(d.blocks) >= maxBlocks {
		d.stats.Evictions += uint64(len(d.blocks))
		d.flush()
	}
	b := d.build(pc, word)
	d.blocks[pc] = b
	return b
}

// Next is the chained lookup: the block at pc, reached by exiting from.
// If from already links to pc the link is followed directly — no map
// access. Otherwise it falls back to Block and, when from has a free slot,
// installs a link so the next traversal of this edge skips the lookup.
// from == nil, or a from built before the last flush, degrades to a plain
// Block call: a current block's links all point at current blocks.
func (d *Decoder) Next(from *Block, pc uint32, word func(addr uint32) uint32) *Block {
	if from == nil || from.gen != d.gen {
		return d.Block(pc, word)
	}
	for i := range from.links[:from.nlinks] {
		if l := &from.links[i]; l.pc == pc {
			d.stats.ChainFollows++
			return l.b
		}
	}
	b := d.Block(pc, word)
	// A miss on a full cache flushes, retiring from: link only if it is
	// still current.
	if from != b && from.gen == d.gen && int(from.nlinks) < ChainSlots {
		from.links[from.nlinks] = chainLink{pc: pc, b: b}
		from.nlinks++
		d.links++
		d.stats.ChainLinks++
	}
	return b
}

func (d *Decoder) build(pc uint32, word func(addr uint32) uint32) *Block {
	b := &Block{PC: pc, gen: d.gen}
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

// flush drops every cached block and bumps the generation, which retires
// every chain link with its block.
func (d *Decoder) flush() {
	d.gen++
	d.stats.ChainSevers += d.links
	d.links = 0
	clear(d.blocks)
}

// InvalidateAll flushes the cache. Called when code memory changed in a
// way not attributable to a range (overlay remaps, whole-image loads).
func (d *Decoder) InvalidateAll() {
	d.stats.Invalidations++
	d.flush()
}

// InvalidateRange flushes the cache if any cached block overlaps
// [addr, addr+n); otherwise it changes nothing. Flash programming and
// program loads call this with the written window.
func (d *Decoder) InvalidateRange(addr uint32, n uint32) {
	if n == 0 {
		return
	}
	d.stats.Invalidations++
	lo, hi := uint64(addr), uint64(addr)+uint64(n)
	for pc, b := range d.blocks {
		if uint64(pc) < hi && uint64(pc)+4*uint64(len(b.Ins)) > lo {
			d.flush()
			return
		}
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
