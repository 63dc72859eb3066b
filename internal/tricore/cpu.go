// Package tricore implements the TriCore-like CPU core of the simulated
// SoC: an in-order, three-way superscalar machine with one integer pipe,
// one load/store pipe and one loop pipe (so at most three instructions
// retire per cycle — the figure the paper quotes for the MCDS IPC counter),
// static branch prediction, instruction and data caches, scratchpads, and
// shadow-register interrupt entry.
package tricore

import (
	"fmt"

	"repro/internal/isa"
	"repro/internal/sim"
)

// InterruptSource supplies pending interrupt requests to the core. The
// interrupt router in internal/irq implements it.
type InterruptSource interface {
	// PendingIRQ returns the highest pending priority strictly greater
	// than cur, with its vector address, or ok=false.
	PendingIRQ(cur uint32) (prio uint32, vector uint32, ok bool)
	// AckIRQ tells the router the core accepted the request at prio.
	AckIRQ(prio uint32)
}

// Timing is what differs between the cores built from this model: the
// TriCore issues three instructions and fetches two aligned 8-byte blocks
// per cycle, the PCP one of each (pcp.Timing).
type Timing struct {
	FetchBlocksCycle int // aligned 8-byte blocks fetchable per cycle
	IssueWidth       int // instructions per cycle, 1..MaxIssueWidth
}

// MaxIssueWidth is the most instructions a core retires in one cycle: one
// per pipe. A core's EvInstrExecuted counter therefore rises by at most
// this much per cycle, a bound the MCDS schedules its wakes on.
const MaxIssueWidth = 3

// DefaultTiming returns the TriCore timing.
func DefaultTiming() Timing {
	return Timing{FetchBlocksCycle: 2, IssueWidth: MaxIssueWidth}
}

// Pipeline latencies in cycles, the same on every core: a short
// automotive pipeline.
const (
	takenPenalty    = 1  // correctly predicted taken branch bubble
	mispredictFlush = 3  // mispredicted branch flush
	indirectPenalty = 2  // JR / RFE target bubble
	irqEntryCycles  = 4  // interrupt entry latency
	mulLatency      = 2  // MUL/MAC result latency
	loadUseLatency  = 1  // extra cycles before a loaded value is usable
	shadowDepth     = 16 // nesting depth of the shadow register stack
)

// Retired describes one retired instruction, exposed to the MCDS core
// observation block for program/data trace and comparators.
type Retired struct {
	Cycle  uint64
	PC     uint32
	Op     isa.Op
	Taken  bool   // change of flow taken
	Target uint32 // flow target when Taken
	HasMem bool
	EA     uint32 // effective address when HasMem
	Write  bool
	Data   uint32 // value loaded or stored when HasMem
}

// TraceSwitches are an observer's consumers of the retire log: program
// flow trace and data trace. A core pointing at them logs retirements
// only while one is on, so flipping a switch between cycles catches the
// very next retired instruction.
type TraceSwitches struct {
	FlowTrace bool
	DataTrace bool
}

type shadowFrame struct {
	pc  uint32
	icr uint32
}

// CPU is one TriCore-like core.
type CPU struct {
	Name   string
	ID     uint32
	PMI    PMI
	DMI    DMI
	IRQ    InterruptSource // nil = no interrupts
	Timing Timing

	regs [isa.NumRegs]uint32
	csr  [isa.NumCSRs]uint32
	pc   uint32

	regReadyAt  [isa.NumRegs]uint64
	regFromLoad [isa.NumRegs]bool

	halted     bool
	stallUntil uint64
	stallKind  sim.Event // attribution for the current stall window

	fetchBlock uint32 // currently buffered aligned 8-byte fetch block
	fetchValid bool

	storeBusyUntil uint64 // single-entry posted-store buffer

	memBuf [4]byte // scratch for load/store data (avoids per-access allocation)

	shadow []shadowFrame

	counters *sim.Counters

	// Decode-once block dispatch (nil dec = per-word reference path).
	dec    *isa.Decoder
	wordFn func(addr uint32) uint32 // bound once; avoids a per-lookup closure
	blk    *isa.Block               // current-block hint carried across cycles
	blkIdx int
	blkGen uint64 // decoder generation the hint was taken at

	// Block chaining (effective only with a decoder installed): when a
	// block exits via taken control flow, the exited block is remembered so
	// the next lookup can follow a direct block-to-block link instead of
	// the PC-keyed map.
	chainFrom *isa.Block // block exited by the pending control transfer

	waker *sim.Waker // clock wake handle; nil when driven without a clock

	// Stop watch (StopAtReg, StopOnHalt): while armed, the end of every
	// issuing Tick checks it and stops the clock's run once it holds.
	stopOnHalt bool
	stopOnReg  bool
	stopReg    int
	stopMin    uint32

	// TraceEnabled makes the core append every retired instruction to the
	// retire log drained by the MCDS observation block each cycle; Trace
	// does so only while one of its switches is on. Both are read at every
	// retirement.
	TraceEnabled bool
	Trace        *TraceSwitches
	retired      []Retired

	// OnRetireLog, when set, is called whenever the retire log turns
	// non-empty: the wake of an observer that sleeps while nothing is
	// traced.
	OnRetireLog func()

	// OnDbg, when set, is called for each executed DBG instruction (the
	// MCDS debug-marker hook).
	OnDbg func(cycle uint64, pc uint32)
}

// New creates a core named name with the given memory interfaces and
// timing; an issue width outside [1, MaxIssueWidth] panics. ctrs is
// the core's event counter set; pass the same pointer to cache.New for the
// core's caches so that one observation block sees all core events. nil
// allocates a fresh set.
func New(name string, id uint32, pmi PMI, dmi DMI, timing Timing, ctrs *sim.Counters) *CPU {
	if timing.IssueWidth < 1 || timing.IssueWidth > MaxIssueWidth {
		panic(fmt.Sprintf("tricore: %s issue width %d outside [1, %d]", name, timing.IssueWidth, MaxIssueWidth))
	}
	if ctrs == nil {
		ctrs = new(sim.Counters)
	}
	c := &CPU{Name: name, ID: id, PMI: pmi, DMI: dmi, Timing: timing, counters: ctrs}
	c.PMI.ctrs = ctrs
	c.DMI.ctrs = ctrs
	c.csr[isa.CsrCoreID] = id
	// A core is held in halt until Reset places it at an entry point
	// (mirrors the boot behaviour of secondary cores).
	c.halted = true
	return c
}

// Counters returns the core's event counter set (the MCDS core observation
// block tap).
func (c *CPU) Counters() *sim.Counters { return c.counters }

// SetDecoder installs (or, with nil, removes) the decode-once block cache.
// With a decoder, issue bundles walk pre-decoded basic blocks instead of
// calling isa.Decode on every fetched word; behaviour is bit-identical to
// the per-word path — only the wall-clock cost per simulated cycle changes.
// The switch mirrors sim.Clock.SetWakeScheduling: tests flip it to prove
// equivalence.
func (c *CPU) SetDecoder(d *isa.Decoder) {
	c.dec = d
	c.blk, c.blkIdx, c.blkGen = nil, 0, 0
	c.chainFrom = nil
	if d != nil && c.wordFn == nil {
		c.wordFn = c.PMI.Word
	}
}

// Decoder returns the installed block decoder (nil = per-word path).
func (c *CPU) Decoder() *isa.Decoder { return c.dec }

// NextWake implements sim.Sleeper: a halted core's Tick is a pure no-op,
// so the clock may park it until Reset reschedules. A running core is due
// every cycle (stall windows still burn counted cycles).
func (c *CPU) NextWake(from uint64) uint64 {
	if c.halted {
		return sim.NoWake
	}
	return from
}

// BindWake implements sim.WakeBinder.
func (c *CPU) BindWake(w *sim.Waker) { c.waker = w }

// Reset places the core at entry with an empty pipeline. Interrupts are
// disabled until software enables them via MTCR to ICR.
func (c *CPU) Reset(entry uint32, sp uint32) {
	c.pc = entry
	c.halted = false
	c.stallUntil = 0
	c.fetchValid = false
	c.blk, c.blkIdx = nil, 0
	c.chainFrom = nil
	// A halted core is parked in the wake schedule; un-park it.
	c.waker.Reschedule(c.waker.Cycle())
	c.shadow = c.shadow[:0]
	for i := range c.regs {
		c.regs[i] = 0
		c.regReadyAt[i] = 0
		c.regFromLoad[i] = false
	}
	c.regs[isa.RegSP] = sp
	for i := range c.csr {
		c.csr[i] = 0
	}
	c.csr[isa.CsrCoreID] = c.ID
}

// Halted reports whether the core executed HALT (or was halted by the
// debug run-control).
func (c *CPU) Halted() bool { return c.halted }

// DebugBreak halts the core from outside the instruction stream — the
// OCDS run-control path the MCDS break action drives. Reset resumes.
func (c *CPU) DebugBreak() {
	c.halted = true
	c.checkStop()
}

// StopAtReg arms the core's stop watch on register r: the run of the clock
// the core is attached to (sim.Clock.RunToStop) ends at the end of the
// first cycle in which r holds at least v — before its first cycle when r
// already does. Registers change only when the core issues, so the watch
// is checked only after an issuing cycle. A watch fires once; DisarmStop
// drops one that has not.
func (c *CPU) StopAtReg(r int, v uint32) {
	c.stopOnReg, c.stopReg, c.stopMin = true, r, v
	c.checkStop()
}

// StopOnHalt arms the core's stop watch on the core halting (HALT or a
// debug break); on an already halted core it stops the next run at once.
func (c *CPU) StopOnHalt() {
	c.stopOnHalt = true
	c.checkStop()
}

// DisarmStop drops every armed stop condition.
func (c *CPU) DisarmStop() {
	c.stopOnHalt, c.stopOnReg = false, false
}

// checkStop raises the clock stop, and disarms, once an armed condition
// holds.
func (c *CPU) checkStop() {
	if c.stopOnHalt && c.halted || c.stopOnReg && c.regs[c.stopReg] >= c.stopMin {
		c.DisarmStop()
		c.waker.Stop()
	}
}

// PC returns the address of the next instruction to issue.
func (c *CPU) PC() uint32 { return c.pc }

// Reg returns the architectural value of register r.
func (c *CPU) Reg(r int) uint32 { return c.regs[r] }

// SetReg sets register r (test and loader use).
func (c *CPU) SetReg(r int, v uint32) { c.regs[r] = v }

// DrainRetired returns the retire log accumulated since the last drain and
// resets it. The MCDS observation block calls this once per cycle (it is
// stepped after the core within the same cycle).
func (c *CPU) DrainRetired() []Retired {
	r := c.retired
	c.retired = c.retired[:0]
	return r
}

// irqEnabled reports whether the global interrupt enable bit is set.
func (c *CPU) irqEnabled() bool { return c.csr[isa.CsrICR]&1 != 0 }

// currentPrio returns the current CPU priority number (ICR.CCPN).
func (c *CPU) currentPrio() uint32 { return c.csr[isa.CsrICR] >> 8 & 0xFF }

// Tick advances the core by one cycle.
func (c *CPU) Tick(now uint64) {
	if c.halted {
		return
	}
	c.counters.Inc(sim.EvCycle)

	if now < c.stallUntil {
		c.counters.Inc(sim.EvStallCycle)
		if c.stallKind != sim.EvNone {
			c.counters.Inc(c.stallKind)
		}
		return
	}

	// Interrupt entry between instructions.
	if c.IRQ != nil && c.irqEnabled() {
		if prio, vector, ok := c.IRQ.PendingIRQ(c.currentPrio()); ok {
			c.enterIRQ(now, prio, vector)
			return
		}
	}

	c.issueBundle(now)
	if c.stopOnHalt || c.stopOnReg {
		c.checkStop()
	}
}

func (c *CPU) enterIRQ(now uint64, prio, vector uint32) {
	if len(c.shadow) >= shadowDepth {
		panic(fmt.Sprintf("%s: shadow register stack overflow (depth %d)", c.Name, shadowDepth))
	}
	c.shadow = append(c.shadow, shadowFrame{pc: c.pc, icr: c.csr[isa.CsrICR]})
	c.csr[isa.CsrICR] = prio << 8 // CCPN = prio, IE = 0 until handler re-enables
	c.pc = vector
	c.fetchValid = false
	c.IRQ.AckIRQ(prio)
	c.counters.Inc(sim.EvInterruptEntry)
	c.stall(now, now+irqEntryCycles, sim.EvNone)
}

// stall suspends issue until cycle until (exclusive), attributing waiting
// cycles to kind. The current cycle is not recounted.
func (c *CPU) stall(now, until uint64, kind sim.Event) {
	if until <= now {
		return
	}
	c.stallUntil = until
	c.stallKind = kind
}

// fetchAvail charges the fetch timing for the instruction at pc and
// reports whether its word is available this cycle. blocks tracks how many
// new block fetches this cycle already performed. false means the bundle
// must end (either a stall was scheduled, or the per-cycle fetch bandwidth
// is exhausted). Both dispatch paths — per-word and block-cached — share
// this one copy of the fetch timing model.
func (c *CPU) fetchAvail(now uint64, pc uint32, blocks *int, issued int) bool {
	block := pc &^ 7
	if !c.fetchValid || c.fetchBlock != block {
		if *blocks >= c.Timing.FetchBlocksCycle {
			// Out of fetch bandwidth this cycle; resume next cycle.
			if issued == 0 {
				c.counters.Inc(sim.EvStallCycle)
				c.counters.Inc(sim.EvStallFetch)
			}
			return false
		}
		*blocks++
		ready := c.PMI.FetchBlock(now, pc)
		c.fetchValid = true
		c.fetchBlock = block
		if ready > now {
			// Fetch miss: stall until the block arrives.
			c.stall(now, ready, sim.EvStallFetch)
			if issued == 0 {
				c.counters.Inc(sim.EvStallCycle)
				c.counters.Inc(sim.EvStallFetch)
			}
			return false
		}
	}
	return true
}

// fetchWord supplies the instruction word at pc, charging fetch timing via
// fetchAvail.
func (c *CPU) fetchWord(now uint64, pc uint32, blocks *int, issued int) (uint32, bool) {
	if !c.fetchAvail(now, pc, blocks, issued) {
		return 0, false
	}
	return c.PMI.Word(pc), true
}

func (c *CPU) issueBundle(now uint64) {
	if c.dec != nil {
		c.issueBundleCached(now)
		return
	}
	var pipeBusy [3]bool
	issued := 0
	blocks := 0
	for issued < c.Timing.IssueWidth {
		word, ok := c.fetchWord(now, c.pc, &blocks, issued)
		if !ok {
			break
		}
		in := isa.Decode(word)
		if !in.Valid() {
			panic(fmt.Sprintf("%s: illegal instruction %#08x at pc %#08x", c.Name, word, c.pc))
		}
		pipe := in.Op.Pipe()
		if pipeBusy[pipe] {
			break // structural hazard: pipe already claimed this cycle
		}
		var reads [3]uint8
		if !c.sourcesReady(now, issued, reads[:in.ReadRegs(&reads)]) {
			break
		}
		flowChange := c.execute(now, in)
		pipeBusy[pipe] = true
		issued++
		c.counters.Inc(sim.EvInstrExecuted)
		if flowChange || c.halted {
			break
		}
	}
}

// sourcesReady is the in-order scoreboard check both dispatch paths share:
// it reports whether every register in reads is available at cycle now,
// and counts the stall when one is not.
func (c *CPU) sourcesReady(now uint64, issued int, reads []uint8) bool {
	for _, r := range reads {
		if c.regReadyAt[r] > now {
			c.sourceStall(now, issued, reads)
			return false
		}
	}
	return true
}

// sourceStall counts a cycle whose first instruction waits on a source
// register: a stall, and a data stall when a pending load holds one.
func (c *CPU) sourceStall(now uint64, issued int, reads []uint8) {
	if issued > 0 {
		return
	}
	c.counters.Inc(sim.EvStallCycle)
	for _, r := range reads {
		if c.regReadyAt[r] > now && c.regFromLoad[r] {
			c.counters.Inc(sim.EvStallData)
			return
		}
	}
}

func (c *CPU) writeReg(r uint8, v uint32, readyAt uint64, fromLoad bool) {
	c.regs[r] = v
	c.regReadyAt[r] = readyAt
	c.regFromLoad[r] = fromLoad
}

func (c *CPU) retire(now uint64, pc uint32, in isa.Instr, r Retired) {
	if !c.TraceEnabled && (c.Trace == nil || !c.Trace.FlowTrace && !c.Trace.DataTrace) {
		return
	}
	if len(c.retired) == 0 && c.OnRetireLog != nil {
		c.OnRetireLog()
	}
	r.Cycle = now
	r.PC = pc
	r.Op = in.Op
	c.retired = append(c.retired, r)
}
