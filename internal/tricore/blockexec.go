package tricore

import (
	"fmt"

	"repro/internal/isa"
	"repro/internal/sim"
)

// This file is the decode-once fast path: issueBundleCached mirrors
// issueBundle step for step but walks a pre-decoded isa.Block instead of
// calling isa.Decode on every fetched word. Every timing decision — fetch
// bandwidth and miss charging, structural hazards, scoreboard stalls, stall
// counter attribution — runs through the same code as the per-word path
// (fetchAvail, execute), so the two paths are bit-identical in simulated
// behaviour; only the wall-clock cost per simulated cycle differs.
//
// The executor never crosses a cycle boundary: a bundle is at most one
// cycle's worth of issue, so IRQ windows, wake scheduling and Run chunk
// boundaries keep their per-cycle semantics unchanged.

// issueBundleCached issues one cycle's bundle from the block cache.
func (c *CPU) issueBundleCached(now uint64) {
	d := c.dec
	gen := d.Gen()
	blk, idx := c.blk, c.blkIdx
	// The hint survives from the previous cycle only if no invalidation
	// happened and the pc still points at the hinted instruction.
	if blk != nil && (c.blkGen != gen || idx >= len(blk.Ins) || blk.PC+uint32(idx)*4 != c.pc) {
		blk, idx = nil, 0
	}

	// [4]bool with &3 indexing: Pipe is 0..2 by construction, the mask
	// just proves it to the compiler (no bounds check on the hot path).
	var pipeBusy [4]bool
	issued := 0
	blocks := 0
	for issued < c.Timing.IssueWidth {
		if blk == nil {
			// Chained lookup: if the previous bundle ended by exiting a
			// block via taken control flow, follow (or install) a direct
			// block-to-block link instead of the PC-keyed map lookup.
			blk = d.Next(c.chainFrom, c.pc, c.wordFn)
			c.chainFrom = nil
			idx = 0
		}
		if !c.fetchAvail(now, c.pc, &blocks, issued) {
			break
		}
		di := &blk.Ins[idx]
		if di.Invalid {
			panic(fmt.Sprintf("%s: illegal instruction %#08x at pc %#08x", c.Name, di.Raw, c.pc))
		}
		if pipeBusy[di.Pipe&3] {
			break // structural hazard: pipe already claimed this cycle
		}
		if !c.sourcesReady(now, issued, di.Reads[:di.NRead]) {
			break
		}
		flow := handlers[di.In.Op](c, now, di.In)
		pipeBusy[di.Pipe&3] = true
		issued++
		c.counters.Inc(sim.EvInstrExecuted)
		if g := d.Gen(); g != gen {
			// The instruction itself invalidated cached code (a store
			// reaching flash or the overlay): the held block may be stale
			// from the very next instruction on. Drop it and re-decode.
			gen = g
			blk, idx = nil, 0
			if flow || c.halted {
				break
			}
			continue
		}
		if c.halted {
			blk, idx = nil, 0
			break
		}
		if flow {
			// c.pc holds the flow target (or the fall-through pc of a
			// stalled load/store or loop exit). Keep the hint when it
			// lands inside this block — the hot-loop back edge. When it
			// leaves the block, remember the exited block so the next
			// lookup can chain.
			blk, idx = c.rehintChain(blk)
			break
		}
		idx++
		if idx >= len(blk.Ins) {
			blk = nil
		}
	}

	c.blk, c.blkIdx = blk, idx
	if blk != nil {
		c.blkGen = gen
	}
}

// rehint maps pc back into blk, returning the block and index to resume
// at, or (nil, 0) when pc is outside the block.
func rehint(blk *isa.Block, pc uint32) (*isa.Block, int) {
	off := pc - blk.PC
	if off%4 == 0 && off/4 < uint32(len(blk.Ins)) {
		return blk, int(off / 4)
	}
	return nil, 0
}

// rehintChain is rehint plus chain capture: when the flow target leaves
// blk, the exited block is remembered so the next lookup goes through
// Decoder.Next, which ignores it if a flush has retired it since. Callers
// must only use it when no invalidation happened during the exiting
// instruction — the gen-bump path drops hints instead.
func (c *CPU) rehintChain(blk *isa.Block) (*isa.Block, int) {
	nb, ni := rehint(blk, c.pc)
	if nb == nil {
		c.chainFrom = blk
	}
	return nb, ni
}
