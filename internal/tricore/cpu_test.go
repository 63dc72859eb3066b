package tricore

import (
	"strings"
	"testing"

	"repro/internal/isa"
	"repro/internal/mem"
	"repro/internal/sim"
)

func TestArithmeticProgram(t *testing.T) {
	r := newRig(t, rigOpt{icache: true})
	a := isa.NewAsm(mem.FlashBase)
	a.Movi(1, 6)
	a.Movi(2, 7)
	a.Mul(3, 1, 2)     // 42
	a.Addi(3, 3, 100)  // 142
	a.Sub(4, 3, 1)     // 136
	a.Shli(5, 4, 2)    // 544
	a.Xori(5, 5, 0xFF) // 544 ^ 255
	a.Slt(6, 1, 2)     // 1
	a.Halt()
	r.load(t, mustAsm(t, a))
	r.run(t, 10_000)
	if got := r.cpu.Reg(3); got != 142 {
		t.Errorf("r3 = %d, want 142", got)
	}
	if got := r.cpu.Reg(5); got != 544^255 {
		t.Errorf("r5 = %d, want %d", got, 544^255)
	}
	if got := r.cpu.Reg(6); got != 1 {
		t.Errorf("r6 = %d, want 1", got)
	}
}

func TestMovwWideConstants(t *testing.T) {
	r := newRig(t, rigOpt{icache: true})
	a := isa.NewAsm(mem.FlashBase)
	a.Movw(1, 0xDEADBEEF)
	a.Movw(2, 0x12345678)
	a.Halt()
	r.load(t, mustAsm(t, a))
	r.run(t, 1000)
	if r.cpu.Reg(1) != 0xDEADBEEF || r.cpu.Reg(2) != 0x12345678 {
		t.Errorf("r1=%#x r2=%#x", r.cpu.Reg(1), r.cpu.Reg(2))
	}
}

func TestLoadStoreDSPR(t *testing.T) {
	r := newRig(t, rigOpt{icache: true})
	a := isa.NewAsm(mem.FlashBase)
	a.Movw(1, mem.DSPRBase)
	a.Movi(2, 1234)
	a.Stw(2, 1, 16)
	a.Ldw(3, 1, 16)
	a.Movi(4, 0xAB)
	a.Stb(4, 1, 20)
	a.Ldb(5, 1, 20)
	a.Halt()
	r.load(t, mustAsm(t, a))
	r.run(t, 1000)
	if r.cpu.Reg(3) != 1234 {
		t.Errorf("r3 = %d", r.cpu.Reg(3))
	}
	if r.cpu.Reg(5) != 0xAB {
		t.Errorf("r5 = %#x", r.cpu.Reg(5))
	}
	if got := r.dspr.Read32(mem.DSPRBase + 16); got != 1234 {
		t.Errorf("dspr content = %d", got)
	}
	// DSPR accesses are counted as scratch accesses.
	if r.cpu.Counters().Get(sim.EvDScratchAccess) != 4 {
		t.Errorf("scratch accesses = %d, want 4", r.cpu.Counters().Get(sim.EvDScratchAccess))
	}
}

func TestStoreWriteThroughToSRAM(t *testing.T) {
	r := newRig(t, rigOpt{icache: true, dcache: true})
	a := isa.NewAsm(mem.FlashBase)
	a.Movw(1, mem.SRAMBase)
	a.Movi(2, 77)
	a.Stw(2, 1, 0)
	a.Ldw(3, 1, 0)
	a.Halt()
	r.load(t, mustAsm(t, a))
	r.run(t, 1000)
	if r.cpu.Reg(3) != 77 {
		t.Errorf("r3 = %d", r.cpu.Reg(3))
	}
	if got := r.sram.Read32(mem.SRAMBase); got != 77 {
		t.Errorf("sram = %d (write-through failed)", got)
	}
}

func TestLoopCountsDown(t *testing.T) {
	r := newRig(t, rigOpt{icache: true})
	a := isa.NewAsm(mem.FlashBase)
	a.Movi(1, 10) // loop counter
	a.Movi(2, 0)  // accumulator
	a.Label("body")
	a.Addi(2, 2, 3)
	a.Loop(1, "body")
	a.Halt()
	r.load(t, mustAsm(t, a))
	r.run(t, 1000)
	if r.cpu.Reg(2) != 30 {
		t.Errorf("r2 = %d, want 30", r.cpu.Reg(2))
	}
	if r.cpu.Reg(1) != 0 {
		t.Errorf("r1 = %d, want 0", r.cpu.Reg(1))
	}
}

func TestCallRet(t *testing.T) {
	r := newRig(t, rigOpt{icache: true})
	a := isa.NewAsm(mem.FlashBase)
	a.Movi(1, 5)
	a.Call("double")
	a.Call("double")
	a.Halt()
	a.Label("double")
	a.Add(1, 1, 1)
	a.Ret()
	r.load(t, mustAsm(t, a))
	r.run(t, 1000)
	if r.cpu.Reg(1) != 20 {
		t.Errorf("r1 = %d, want 20", r.cpu.Reg(1))
	}
}

func TestTripleIssueIPC(t *testing.T) {
	// A loop body of one integer op + one LS op + the LOOP instruction can
	// sustain close to 3 instructions per cycle from the program
	// scratchpad — the "up to 3 within a clock cycle" of the paper.
	r := newRig(t, rigOpt{})
	a := isa.NewAsm(mem.PSPRBase)
	a.Movw(1, mem.DSPRBase) // base pointer
	a.Movi(2, 0)            // value
	a.Movw(3, 1000)         // iterations
	a.Label("body")
	a.Addi(2, 2, 1) // integer pipe
	a.Stw(4, 1, 0)  // LS pipe (independent reg)
	a.Loop(3, "body")
	a.Halt()
	r.load(t, mustAsm(t, a))
	cycles := r.run(t, 100_000)
	instr := r.cpu.Counters().Get(sim.EvInstrExecuted)
	ipc := float64(instr) / float64(cycles)
	if ipc < 2.5 {
		t.Errorf("IPC = %.2f (instr=%d cycles=%d), want >= 2.5", ipc, instr, cycles)
	}
	if ipc > 3.0 {
		t.Errorf("IPC = %.2f exceeds the 3-instruction bound", ipc)
	}
}

func TestICacheWarmup(t *testing.T) {
	r := newRig(t, rigOpt{icache: true, flashWS: 5})
	a := isa.NewAsm(mem.FlashBase)
	a.Movi(1, 50)
	a.Label("body")
	a.Nop()
	a.Nop()
	a.Nop()
	a.Nop()
	a.Loop(1, "body")
	a.Halt()
	r.load(t, mustAsm(t, a))
	r.run(t, 100_000)
	c := r.cpu.Counters()
	acc := c.Get(sim.EvICacheAccess)
	miss := c.Get(sim.EvICacheMiss)
	if miss == 0 {
		t.Fatal("expected cold misses")
	}
	// The loop is tiny: after warm-up everything hits; misses are bounded
	// by the number of distinct lines (program < 2 lines per 32 bytes).
	if miss > 3 {
		t.Errorf("misses = %d, want <= 3 (loop must run from cache)", miss)
	}
	hitRate := float64(c.Get(sim.EvICacheHit)) / float64(acc)
	if hitRate < 0.95 {
		t.Errorf("hit rate = %.3f, want >= 0.95", hitRate)
	}
}

func TestUncachedFetchIsSlow(t *testing.T) {
	mkProg := func(base uint32) *isa.Program {
		a := isa.NewAsm(base)
		a.Movi(1, 200)
		a.Label("body")
		a.Addi(2, 2, 1)
		a.Loop(1, "body")
		a.Halt()
		p, err := a.Assemble()
		if err != nil {
			t.Fatal(err)
		}
		return p
	}

	rc := newRig(t, rigOpt{icache: true})
	rc.load(t, mkProg(mem.FlashBase))
	cached := rc.run(t, 1_000_000)

	ru := newRig(t, rigOpt{icache: true})
	ru.load(t, mkProg(mem.FlashUncach))
	uncached := ru.run(t, 1_000_000)

	if uncached <= cached*2 {
		t.Errorf("uncached run %d cycles, cached %d: expected >2x slowdown", uncached, cached)
	}
	if rc.cpu.Counters().Get(sim.EvIFlashAccess) >= ru.cpu.Counters().Get(sim.EvIFlashAccess) {
		t.Error("uncached run must reach the flash more often")
	}
}

func TestBranchPenalties(t *testing.T) {
	// Forward-taken branches are mispredicted (static BTFN) and must cost
	// more than backward-taken ones.
	mk := func(forward bool) uint64 {
		r := newRig(t, rigOpt{})
		a := isa.NewAsm(mem.PSPRBase)
		a.Movi(1, 1000)
		a.Movi(2, 0)
		if forward {
			a.Label("head")
			a.Beq(2, 2, "fwd") // always taken, forward
			a.Nop()
			a.Label("fwd")
			a.Loop(1, "head")
		} else {
			a.Label("head")
			a.Addi(2, 2, 0)
			a.Loop(1, "head") // backward taken, loop pipe
		}
		a.Halt()
		p, err := a.Assemble()
		if err != nil {
			t.Fatal(err)
		}
		r.load(t, p)
		return r.run(t, 1_000_000)
	}
	fwd, bwd := mk(true), mk(false)
	if fwd <= bwd {
		t.Errorf("forward-taken %d cycles vs backward %d: mispredicts must cost more", fwd, bwd)
	}
}

func TestMFCRCycleCounter(t *testing.T) {
	r := newRig(t, rigOpt{icache: true})
	a := isa.NewAsm(mem.FlashBase)
	a.Mfcr(1, isa.CsrCCNT)
	a.Nop()
	a.Nop()
	a.Nop()
	a.Mfcr(2, isa.CsrCCNT)
	a.Sub(3, 2, 1)
	a.Halt()
	r.load(t, mustAsm(t, a))
	r.run(t, 1000)
	if d := r.cpu.Reg(3); d == 0 || d > 20 {
		t.Errorf("cycle delta = %d, want small nonzero", d)
	}
	if r.cpu.Reg(0) != 0 {
		t.Error("r0 unexpectedly written")
	}
}

func TestCoreIDReadOnly(t *testing.T) {
	r := newRig(t, rigOpt{icache: true})
	a := isa.NewAsm(mem.FlashBase)
	a.Movi(1, 99)
	a.Mtcr(isa.CsrCoreID, 1) // must be ignored
	a.Mfcr(2, isa.CsrCoreID)
	a.Halt()
	r.load(t, mustAsm(t, a))
	r.run(t, 1000)
	if r.cpu.Reg(2) != 0 {
		t.Errorf("core id = %d, want 0", r.cpu.Reg(2))
	}
}

func TestDFlashReadCounted(t *testing.T) {
	r := newRig(t, rigOpt{icache: true})
	// Place a constant table in flash, read it.
	r.fl.Load(mem.FlashBase+0x1000, []byte{0x2A, 0, 0, 0})
	a := isa.NewAsm(mem.FlashBase)
	a.Movw(1, mem.FlashBase+0x1000)
	a.Ldw(2, 1, 0)
	a.Halt()
	r.load(t, mustAsm(t, a))
	r.run(t, 1000)
	if r.cpu.Reg(2) != 0x2A {
		t.Errorf("r2 = %d", r.cpu.Reg(2))
	}
	if r.cpu.Counters().Get(sim.EvDFlashRead) != 1 {
		t.Errorf("EvDFlashRead = %d, want 1", r.cpu.Counters().Get(sim.EvDFlashRead))
	}
}

func TestDCacheHitsOnRepeatedLoads(t *testing.T) {
	r := newRig(t, rigOpt{icache: true, dcache: true})
	r.fl.Load(mem.FlashBase+0x2000, []byte{1, 0, 0, 0})
	a := isa.NewAsm(mem.FlashBase)
	a.Movw(1, mem.FlashBase+0x2000)
	a.Movi(3, 20)
	a.Label("body")
	a.Ldw(2, 1, 0)
	a.Loop(3, "body")
	a.Halt()
	r.load(t, mustAsm(t, a))
	r.run(t, 100_000)
	c := r.cpu.Counters()
	if c.Get(sim.EvDCacheMiss) != 1 {
		t.Errorf("d-miss = %d, want 1", c.Get(sim.EvDCacheMiss))
	}
	if c.Get(sim.EvDCacheHit) != 19 {
		t.Errorf("d-hit = %d, want 19", c.Get(sim.EvDCacheHit))
	}
	if c.Get(sim.EvDFlashRead) != 1 {
		t.Errorf("flash reads = %d, want 1 (only the fill)", c.Get(sim.EvDFlashRead))
	}
}

// fakeIRQ delivers one interrupt of priority 5 after being armed.
type fakeIRQ struct {
	pending bool
	vector  uint32
	acks    int
}

func (f *fakeIRQ) PendingIRQ(cur uint32) (uint32, uint32, bool) {
	if f.pending && 5 > cur {
		return 5, f.vector, true
	}
	return 0, 0, false
}
func (f *fakeIRQ) AckIRQ(uint32) { f.pending = false; f.acks++ }

func TestInterruptEntryAndRFE(t *testing.T) {
	r := newRig(t, rigOpt{icache: true})
	a := isa.NewAsm(mem.FlashBase)
	// Handler at a fixed label; main enables interrupts and spins.
	a.Movi(1, 1) // IE bit
	a.Mtcr(isa.CsrICR, 1)
	a.Movi(2, 0)
	a.Label("spin")
	a.Addi(2, 2, 1)
	a.Movw(4, 500)
	a.Blt(2, 4, "spin")
	a.Halt()
	a.Label("handler")
	a.Movi(3, 111)
	a.Rfe()
	p := mustAsm(t, a)
	r.load(t, p)

	irq := &fakeIRQ{}
	for _, s := range p.Syms {
		if s.Name == "handler" {
			irq.vector = s.Addr
		}
	}
	r.cpu.IRQ = irq

	// Fire the interrupt after 50 cycles.
	r.clock.Attach("firer", sim.TickerFunc(func(cy uint64) {
		if cy == 50 {
			irq.pending = true
		}
	}))
	r.run(t, 100_000)
	if r.cpu.Reg(3) != 111 {
		t.Error("handler did not run")
	}
	if r.cpu.Reg(2) < 490 {
		t.Errorf("main loop did not complete: r2=%d", r.cpu.Reg(2))
	}
	if irq.acks != 1 {
		t.Errorf("acks = %d, want 1", irq.acks)
	}
	c := r.cpu.Counters()
	if c.Get(sim.EvInterruptEntry) != 1 || c.Get(sim.EvInterruptExit) != 1 {
		t.Errorf("irq events = %d/%d, want 1/1",
			c.Get(sim.EvInterruptEntry), c.Get(sim.EvInterruptExit))
	}
}

func TestInterruptMaskedWhenDisabled(t *testing.T) {
	r := newRig(t, rigOpt{icache: true})
	a := isa.NewAsm(mem.FlashBase)
	a.Movi(1, 100)
	a.Label("spin")
	a.Loop(1, "spin")
	a.Halt()
	p := mustAsm(t, a)
	r.load(t, p)
	irq := &fakeIRQ{pending: true, vector: mem.FlashBase}
	r.cpu.IRQ = irq
	r.run(t, 10_000)
	if irq.acks != 0 {
		t.Error("interrupt taken while IE=0")
	}
}

func TestRetireLogOrder(t *testing.T) {
	r := newRig(t, rigOpt{icache: true})
	a := isa.NewAsm(mem.FlashBase)
	a.Movi(1, 3)
	a.Label("body")
	a.Loop(1, "body")
	a.Halt()
	r.load(t, mustAsm(t, a))
	r.cpu.TraceEnabled = true

	var log []Retired
	r.clock.Attach("drain", sim.TickerFunc(func(uint64) {
		log = append(log, r.cpu.DrainRetired()...)
	}))
	r.run(t, 1000)

	if len(log) == 0 {
		t.Fatal("no retired instructions")
	}
	var lastCycle uint64
	for i, re := range log {
		if re.Cycle < lastCycle {
			t.Fatalf("retire log out of order at %d", i)
		}
		lastCycle = re.Cycle
	}
	// Last retired must be the HALT.
	if log[len(log)-1].Op != isa.OpHALT {
		t.Errorf("last op = %v, want HALT", log[len(log)-1].Op)
	}
	// LOOP taken twice (counter 3→2→1), then falls through.
	taken := 0
	for _, re := range log {
		if re.Op == isa.OpLOOP && re.Taken {
			taken++
		}
	}
	if taken != 2 {
		t.Errorf("loop taken %d times, want 2", taken)
	}
}

func TestIPCNeverExceedsThree(t *testing.T) {
	r := newRig(t, rigOpt{})
	a := isa.NewAsm(mem.PSPRBase)
	a.Movw(1, mem.DSPRBase)
	a.Movi(3, 500)
	a.Label("body")
	a.Addi(2, 2, 1)
	a.Addi(4, 4, 1) // second int op cannot co-issue (same pipe)
	a.Ldw(5, 1, 0)
	a.Stw(6, 1, 4)
	a.Loop(3, "body")
	a.Halt()
	r.load(t, mustAsm(t, a))
	cycles := r.run(t, 1_000_000)
	instr := r.cpu.Counters().Get(sim.EvInstrExecuted)
	if float64(instr) > 3*float64(cycles) {
		t.Errorf("IPC bound violated: %d instr in %d cycles", instr, cycles)
	}
}

func TestDeterminism(t *testing.T) {
	run := func() (uint64, uint64) {
		r := newRig(t, rigOpt{icache: true, dcache: true, prefetch: true})
		a := isa.NewAsm(mem.FlashBase)
		a.Movw(1, mem.SRAMBase)
		a.Movi(3, 300)
		a.Label("body")
		a.Ldw(2, 1, 0)
		a.Addi(2, 2, 1)
		a.Stw(2, 1, 0)
		a.Loop(3, "body")
		a.Halt()
		r.load(t, mustAsm(t, a))
		cy := r.run(t, 1_000_000)
		return cy, r.cpu.Counters().Get(sim.EvInstrExecuted)
	}
	c1, i1 := run()
	c2, i2 := run()
	if c1 != c2 || i1 != i2 {
		t.Errorf("nondeterministic: (%d,%d) vs (%d,%d)", c1, i1, c2, i2)
	}
}

func TestAccessorsAndIllegalInstr(t *testing.T) {
	r := newRig(t, rigOpt{icache: true})
	a := isa.NewAsm(mem.FlashBase)
	a.Movi(1, 3)
	a.Halt()
	r.load(t, mustAsm(t, a))
	if r.cpu.PC() != mem.FlashBase {
		t.Errorf("PC = %#x", r.cpu.PC())
	}
	r.cpu.SetReg(5, 77)
	if r.cpu.Reg(5) != 77 {
		t.Error("SetReg/Reg wrong")
	}
	if r.cpu.csr[isa.CsrCoreID] != 0 {
		t.Error("core id CSR wrong")
	}
	r.run(t, 1000)

	// Illegal instruction word panics loudly.
	r2 := newRig(t, rigOpt{icache: true})
	r2.fl.Load(mem.FlashBase, []byte{0, 0, 0, 0xFF}) // opcode 0xFF
	r2.cpu.Reset(mem.FlashBase, mem.DSPRBase+0x1000)
	defer func() {
		if recover() == nil {
			t.Error("illegal instruction must panic")
		}
	}()
	r2.clock.Run(10)
}

// TestIllegalInstructionBothPaths: an undefined opcode and an mfcr/mtcr of
// an undefined CSR are one illegal-instruction fault on the per-word and
// the block-cached path alike.
func TestIllegalInstructionBothPaths(t *testing.T) {
	for _, w := range []uint32{0x26100009, 0x27010009, 0xFC000000} {
		for _, dec := range []*isa.Decoder{nil, isa.NewDecoder(8)} {
			r := newRig(t, rigOpt{icache: true})
			r.cpu.SetDecoder(dec)
			r.fl.Load(mem.FlashBase, []byte{byte(w), byte(w >> 8), byte(w >> 16), byte(w >> 24)})
			r.cpu.Reset(mem.FlashBase, mem.DSPRBase+0x1000)
			func() {
				defer func() {
					if msg, _ := recover().(string); !strings.Contains(msg, "illegal instruction") {
						t.Errorf("word %#08x, block decode %v: panic %q, want an illegal instruction", w, dec != nil, msg)
					}
				}()
				r.clock.Run(100)
			}()
		}
	}
}

func TestShadowStackOverflowPanics(t *testing.T) {
	r := newRig(t, rigOpt{icache: true})
	// Handler that re-enables interrupts and never acks progress: each
	// entry nests deeper until the shadow stack overflows.
	a := isa.NewAsm(mem.FlashBase)
	a.Movi(1, 1)
	a.Mtcr(isa.CsrICR, 1)
	a.Label("spin")
	a.J("spin")
	a.Label("isr")
	a.Movi(1, 1)
	a.Mtcr(isa.CsrICR, 1) // re-enable: nest forever
	a.Label("isrspin")
	a.J("isrspin")
	p := mustAsm(t, a)
	r.load(t, p)
	var isr uint32
	for _, s := range p.Syms {
		if s.Name == "isr" {
			isr = s.Addr
		}
	}
	// Interrupt source with ever-increasing priority so each nest preempts.
	prio := uint32(1)
	r.cpu.IRQ = &risingIRQ{vector: isr, prio: &prio}
	defer func() {
		if recover() == nil {
			t.Error("shadow overflow must panic")
		}
	}()
	r.clock.Run(10_000)
}

type risingIRQ struct {
	vector uint32
	prio   *uint32
}

func (f *risingIRQ) PendingIRQ(cur uint32) (uint32, uint32, bool) {
	return cur + 1, f.vector, true
}
func (f *risingIRQ) AckIRQ(uint32) { *f.prio++ }

func TestUncachedSRAMViewAndByteOps(t *testing.T) {
	r := newRig(t, rigOpt{icache: true, dcache: true})
	a := isa.NewAsm(mem.FlashBase)
	a.Movw(1, mem.SRAMUncach+0x40) // uncached view bypasses the D-cache
	a.Movi(2, 0xAB)
	a.Stb(2, 1, 0)
	a.Ldb(3, 1, 0)
	a.Movw(4, 0x1234)
	a.Stw(4, 1, 4)
	a.Ldw(5, 1, 4)
	a.Halt()
	r.load(t, mustAsm(t, a))
	r.run(t, 10_000)
	if r.cpu.Reg(3) != 0xAB || r.cpu.Reg(5) != 0x1234 {
		t.Errorf("r3=%#x r5=%#x", r.cpu.Reg(3), r.cpu.Reg(5))
	}
	// Uncached accesses must not touch the D-cache.
	if got := r.cpu.Counters().Get(sim.EvDCacheAccess); got != 0 {
		t.Errorf("dcache accesses = %d, want 0", got)
	}
	// Content visible through the cached twin address.
	if got := r.sram.Read32(mem.SRAMBase + 0x44); got != 0x1234 {
		t.Errorf("sram readback = %#x", got)
	}
}

func TestMulLatencyStallsDependent(t *testing.T) {
	// A dependent instruction right after MUL must wait an extra cycle
	// versus an independent one.
	mk := func(dependent bool) uint64 {
		r := newRig(t, rigOpt{})
		a := isa.NewAsm(mem.PSPRBase)
		a.Movw(3, 2000)
		a.Label("b")
		a.Mul(1, 2, 2)
		if dependent {
			a.Add(4, 1, 1) // needs the MUL result
		} else {
			a.Add(4, 5, 5) // independent
		}
		a.Loop(3, "b")
		a.Halt()
		p, err := a.Assemble()
		if err != nil {
			t.Fatal(err)
		}
		r.load(t, p)
		return r.run(t, 1_000_000)
	}
	dep, indep := mk(true), mk(false)
	if dep <= indep {
		t.Errorf("dependent (%d cy) must be slower than independent (%d cy)", dep, indep)
	}
}
