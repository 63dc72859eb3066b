package workload

import (
	"fmt"

	"repro/internal/isa"
	"repro/internal/mem"
	"repro/internal/periph"
	"repro/internal/sim"
	"repro/internal/soc"
)

// Register conventions of generated code:
//
//	r0        always zero (set at init, never written again)
//	r1..r8    task scratch (tasks are leaf functions called from main)
//	r1..r5    ISR scratch (saved to DSPR slots at entry, restored at RFE)
//	r9        main-loop iteration counter
//	r10       DSPR work-area base (never clobbered)
//	r14       link register
//	r15       stack pointer (unused by generated code)
const (
	regZero = 0
	regBase = 10
)

// IterReg is the register generated code counts main-loop iterations in.
// Equal work across configurations means equal iteration counts, so a
// run stopped on it (tricore.CPU.StopAtReg) gives comparable cycle counts.
const IterReg = 9

// gen holds the state of one application generation.
type gen struct {
	spec       Spec
	rng        *sim.RNG
	app        *App
	tableWords uint32
	adcBase    uint32
	canBase    uint32

	frBase       uint32
	fillers      []string
	profCounters map[string]uint32
	profNext     uint32
	profArea     uint32 // absolute DSPR address of instrumentation counters
	cfgAddr      uint32
	jtAddr       uint32
}

// Config block layout (flash-resident words the init code loads).
const (
	cfgTableBase = 0
	cfgEEPROM    = 4
	cfgJumpTable = 8
	cfgWords     = 3
)

// enter places the function label and, for the instrumented variant, the
// software-profiling prologue (the intrusive baseline of experiment E5):
// five instructions incrementing a per-function counter in DSPR.
func (g *gen) enter(a *isa.Asm, name string, scratchA, scratchB int) {
	a.Label(name)
	if !g.spec.Instrumented {
		return
	}
	addr := g.profArea + g.profNext
	g.profNext += 4
	g.profCounters[name] = addr
	a.Movw(scratchA, addr)
	a.Ldw(scratchB, scratchA, 0)
	a.Addi(scratchB, scratchB, 1)
	a.Stw(scratchB, scratchA, 0)
}

func (g *gen) fillerCount() int {
	if g.spec.CodeKB == 0 {
		return 0
	}
	k := g.spec.CodeKB * 1024 / 64
	if k > 1024 {
		k = 1024
	}
	// Power of two for index masking.
	p := 1
	for p*2 <= k {
		p *= 2
	}
	return p
}

// buildMain assembles the TriCore image. Core-1 applications live in the
// upper flash half with their own config block and DSPR window.
func (g *gen) buildMain() (*isa.Program, error) {
	s := g.app.SoC
	base := uint32(mem.FlashBase)
	dsprBase := uint32(mem.DSPRBase)
	if g.spec.CoreIndex == 1 {
		base += s.Cfg.Flash.Size / 2
		dsprBase = mem.DSPR1Base
	}
	g.cfgAddr = base + s.Cfg.Flash.Size/2 - 0x100
	g.profCounters = make(map[string]uint32)
	g.profArea = dsprBase + s.Cfg.DSPRSize - 0x2000

	a := isa.NewAsm(base)

	// --- init ---
	a.Label("entry")
	a.Movi(regZero, 0)
	a.Movw(regBase, g.app.SaveBase)
	a.Movw(1, g.cfgAddr)
	a.Ldw(2, 1, cfgTableBase)
	a.Stw(2, regBase, offTableBase)
	a.Ldw(2, 1, cfgEEPROM)
	a.Stw(2, regBase, offEeprom)
	a.Ldw(2, 1, cfgJumpTable)
	a.Stw(2, regBase, offJumpTable)
	a.Movi(2, 1)
	a.Stw(2, regBase, offDiagState)
	a.Movi(2, 0)
	a.Stw(2, regBase, offTick)
	a.Stw(2, regBase, offRingIdx)
	a.Stw(2, regBase, offCANIdx)
	a.Movi(1, 1)
	a.Mtcr(isa.CsrICR, 1) // enable interrupts
	a.Movi(IterReg, 0)
	a.J("main_loop")

	// --- main loop ---
	a.Label("main_loop")
	a.Call("task_filter")
	a.Call("task_lookup")
	a.Call("task_diag")
	if g.spec.BranchLoops > 0 {
		a.Call("task_branchy")
	}
	if g.spec.CRCTask {
		a.Call("task_crc")
	}
	if g.spec.ObserverDim > 0 {
		a.Call("task_observer")
	}
	if g.fillerCount() > 0 {
		a.Call("task_dispatch")
	}
	if g.spec.EEPROMEmul {
		a.Andi(1, IterReg, 255)
		a.Bne(1, regZero, "skip_eeprom")
		a.Call("task_eeprom")
		a.Label("skip_eeprom")
	}
	a.Addi(IterReg, IterReg, 1)
	a.J("main_loop")

	g.emitFilter(a)
	g.emitLookup(a)
	g.emitDiag(a)
	if g.spec.BranchLoops > 0 {
		g.emitBranchy(a)
	}
	if g.spec.CRCTask {
		g.emitCRC(a)
	}
	if g.spec.ObserverDim > 0 {
		g.emitObserver(a)
	}
	if g.spec.EEPROMEmul {
		g.emitEEPROM(a)
	}
	if g.fillerCount() > 0 {
		g.emitDispatchAndFillers(a)
	}
	g.emitISRs(a)

	return a.Assemble()
}

// emitFilter: FIR/IIR-style MAC loop over the ADC sample ring — the
// ALU-heavy, high-IPC task of engine control (signal conditioning).
func (g *gen) emitFilter(a *isa.Asm) {
	g.enter(a, "task_filter", 1, 2)
	a.Lea(1, regBase, offRing)         // sample pointer
	a.Movi(4, 0)                       // accumulator
	a.Movi(5, int32(3+g.rng.Intn(13))) // coefficient
	a.Movi(8, int32(g.spec.FilterTaps))
	a.Label("filter_body")
	a.Ldw(3, 1, 0)
	a.Mac(4, 3, 5)
	a.Addi(1, 1, 4)
	a.Loop(8, "filter_body")
	a.Stw(4, regBase, offFilterOut)
	a.Ret()
}

// emitLookup: 2D characteristic-map interpolation — indexed loads from the
// lookup tables (flash- or scratch-resident), the data-flash-read workload
// the paper's flash-path analysis targets.
func (g *gen) emitLookup(a *isa.Asm) {
	g.enter(a, "task_lookup", 1, 2)
	a.Ldw(1, regBase, offTableBase)
	a.Ldw(7, regBase, offDiagState)
	a.Ldw(2, regBase, offFilterOut)
	a.Xor(7, 7, 2)
	// LCG scramble so successive iterations hit different cells.
	a.Movw(6, 1664525)
	a.Mul(7, 7, 6)
	a.Movw(6, 1013904223)
	a.Add(7, 7, 6)
	a.Stw(7, regBase, offDiagState)
	a.Movw(8, g.tableWords-1) // index mask (register: tables exceed imm12)
	a.Movi(5, 0)
	// Two interpolation cell pairs from different index bits.
	for _, shift := range []int32{8, 18} {
		a.Shri(2, 7, shift)
		a.And(2, 2, 8)
		a.Shli(2, 2, 2)
		a.Add(2, 1, 2)
		a.Ldw(3, 2, 0)
		a.Ldw(4, 2, 4)
		a.Mac(5, 3, 4)
	}
	a.Stw(5, regBase, offLookupOut)
	a.Ret()
}

// emitDiag: branchy plausibility checks on system state — the
// control-flow-heavy part of the mix.
func (g *gen) emitDiag(a *isa.Asm) {
	g.enter(a, "task_diag", 1, 2)
	a.Ldw(1, regBase, offTick)
	a.Ldw(2, regBase, offDiagState)
	for i := 0; i < g.spec.DiagBranches; i++ {
		mask := int32(1 << uint(g.rng.Intn(10)))
		skip := fmt.Sprintf("diag_skip_%d", i)
		a.Andi(3, 2, mask)
		if g.rng.Bool(0.5) {
			a.Beq(3, regZero, skip)
		} else {
			a.Bne(3, regZero, skip)
		}
		switch g.rng.Intn(3) {
		case 0:
			a.Addi(2, 2, int32(g.rng.Range(1, 7)))
		case 1:
			a.Xori(2, 2, int32(g.rng.Range(1, 255)))
		case 2:
			a.Add(2, 2, 1)
		}
		a.Label(skip)
	}
	a.Xor(2, 2, 1)
	a.Stw(2, regBase, offDiagState)
	a.Ret()
}

// emitBranchy: the control-flow-dominated task — a tight taken-branch
// countdown loop, a call/return ladder CallDepth deep, and a LOOP-heavy
// nested kernel. Hot control transfers cross block boundaries every couple
// of instructions, which is exactly the shape block chaining targets.
func (g *gen) emitBranchy(a *isa.Asm) {
	g.enter(a, "task_branchy", 1, 2)
	a.Stw(14, regBase, offBranchSave) // the ladder clobbers the link register
	// Tight taken-branch loop: the backward BNE is taken every iteration
	// but the last (static prediction's happy path).
	a.Movi(1, int32(g.spec.BranchLoops))
	a.Movi(2, 0)
	a.Label("branchy_tight")
	a.Addi(2, 2, 1)
	a.Addi(1, 1, -1)
	a.Bne(1, regZero, "branchy_tight")
	// Call/return ladder: every call and return is a cross-block transfer.
	if g.spec.CallDepth > 0 {
		a.Call("branchy_f0")
	}
	// Nested LOOP kernel: the inner back edge runs on the zero-overhead
	// loop pipe, the outer one re-enters across the inner block.
	a.Movi(7, 4)
	a.Label("branchy_outer")
	a.Movi(8, int32(1+g.spec.BranchLoops/8))
	a.Label("branchy_inner")
	a.Xori(2, 2, 0x2A)
	a.Loop(8, "branchy_inner")
	a.Loop(7, "branchy_outer")
	a.Stw(2, regBase, offBranchOut)
	a.Ldw(14, regBase, offBranchSave)
	a.Ret()
	for i := 0; i < g.spec.CallDepth; i++ {
		a.Label(fmt.Sprintf("branchy_f%d", i))
		if i+1 < g.spec.CallDepth {
			a.Stw(14, regBase, offBranchSave+4*int32(i+1))
			a.Call(fmt.Sprintf("branchy_f%d", i+1))
			a.Ldw(14, regBase, offBranchSave+4*int32(i+1))
		} else {
			a.Xori(2, 2, int32(i+1))
		}
		a.Ret()
	}
}

// emitCRC: bit-serial CRC over the most recent CAN payload words in the
// SRAM receive buffer — a shift/xor-heavy integer kernel operating on
// bus-resident data (classic body/gateway workload).
func (g *gen) emitCRC(a *isa.Asm) {
	g.enter(a, "task_crc", 1, 2)
	a.Movw(1, mem.SRAMBase+0x1000) // CAN buffer
	a.Movi(5, 0)                   // crc accumulator
	a.Movi(8, 4)                   // words to cover
	a.Label("crc_word")
	a.Ldw(2, 1, 0)
	a.Xor(5, 5, 2)
	a.Movi(7, 8) // bits per word (abbreviated)
	a.Label("crc_bit")
	a.Andi(3, 5, 1)
	a.Shri(5, 5, 1)
	a.Beq(3, regZero, "crc_skip")
	a.Movw(4, 0xEDB88320) // CRC-32 reflected polynomial
	a.Xor(5, 5, 4)
	a.Label("crc_skip")
	a.Loop(7, "crc_bit")
	a.Addi(1, 1, 4)
	a.Loop(8, "crc_word")
	a.Stw(5, regBase, offCRCOut)
	a.Ret()
}

// emitObserver: a small state-observer update x' = A·x (dim×dim MAC
// kernel over DSPR-resident state), the linear-algebra-flavoured part of
// chassis/driveline control.
func (g *gen) emitObserver(a *isa.Asm) {
	dim := int32(g.spec.ObserverDim)
	g.enter(a, "task_observer", 1, 2)
	a.Lea(1, regBase, offObserver) // state vector base
	a.Movi(6, 0)                   // row index (byte offset)
	a.Movi(8, dim)
	a.Label("obs_row")
	a.Movi(5, 0) // accumulator
	a.Movi(7, dim)
	a.Lea(2, regBase, offObserver)
	a.Label("obs_col")
	a.Ldw(3, 2, 0)
	a.Addi(4, 3, 3) // coefficient derived from the element itself
	a.Mac(5, 3, 4)
	a.Addi(2, 2, 4)
	a.Loop(7, "obs_col")
	a.Add(2, 1, 6)
	a.Shri(5, 5, 4) // scale down to avoid quick overflow
	a.Stw(5, 2, 0)
	a.Addi(6, 6, 4)
	a.Loop(8, "obs_row")
	a.Ret()
}

// emitEEPROM: EEPROM emulation — periodic parameter writes into a flash
// sector (posted, but they occupy the flash array and interfere with
// fetches) plus an SRAM journal entry.
func (g *gen) emitEEPROM(a *isa.Asm) {
	g.enter(a, "task_eeprom", 1, 2)
	a.Ldw(1, regBase, offEeprom)
	a.Ldw(2, regBase, offTick)
	a.Andi(3, 2, 15)
	a.Shli(3, 3, 2)
	a.Add(1, 1, 3)
	a.Stw(2, 1, 0) // flash program operation
	a.Movw(4, mem.SRAMBase+0x200)
	a.Stw(2, 4, 0) // journal
	a.Ret()
}

// emitDispatchAndFillers: the code-footprint model. Main calls a dispatcher
// that jumps through a flash-resident table into one of K filler functions
// (inlined application logic of the customer beyond the core tasks),
// stressing the I-cache and fetch path.
func (g *gen) emitDispatchAndFillers(a *isa.Asm) {
	k := g.fillerCount()
	g.enter(a, "task_dispatch", 1, 2)
	a.Ldw(1, regBase, offJumpTable)
	a.Andi(2, IterReg, int32(k-1))
	a.Shli(2, 2, 2)
	a.Add(1, 1, 2)
	a.Ldw(3, 1, 0)
	a.Jr(3) // indirect jump into the selected filler

	for i := 0; i < k; i++ {
		name := fmt.Sprintf("filler_%d", i)
		g.fillers = append(g.fillers, name)
		a.Label(name)
		if g.spec.Instrumented {
			addr := g.profArea + g.profNext
			g.profNext += 4
			g.profCounters[name] = addr
			a.Movw(4, addr)
			a.Ldw(5, 4, 0)
			a.Addi(5, 5, 1)
			a.Stw(5, 4, 0)
		}
		// ~10 random ALU instructions on r4..r8.
		n := 8 + g.rng.Intn(6)
		for j := 0; j < n; j++ {
			rd := 4 + g.rng.Intn(5)
			ra := 4 + g.rng.Intn(5)
			switch g.rng.Intn(5) {
			case 0:
				a.Addi(rd, ra, int32(g.rng.Range(-100, 100)))
			case 1:
				a.Xori(rd, ra, int32(g.rng.Range(0, 255)))
			case 2:
				a.Shli(rd, ra, int32(g.rng.Range(1, 7)))
			case 3:
				a.Add(rd, ra, 4+g.rng.Intn(5))
			case 4:
				a.Mul(rd, ra, 4+g.rng.Intn(5))
			}
		}
		a.J("fillers_done")
	}
	a.Label("fillers_done")
	a.Ret()
}

// emitISRs: the interrupt handlers. Each saves the registers it uses into
// dedicated DSPR slots (the model core has no automatic context save).
func (g *gen) emitISRs(a *isa.Asm) {
	saveAll := func() {
		a.Stw(1, regBase, offSaveR1)
		a.Stw(2, regBase, offSaveR2)
		a.Stw(3, regBase, offSaveR3)
		a.Stw(4, regBase, offSaveR4)
		a.Stw(5, regBase, offSaveR5)
	}
	restoreAll := func() {
		a.Ldw(1, regBase, offSaveR1)
		a.Ldw(2, regBase, offSaveR2)
		a.Ldw(3, regBase, offSaveR3)
		a.Ldw(4, regBase, offSaveR4)
		a.Ldw(5, regBase, offSaveR5)
	}

	// ADC end-of-conversion: read the result register, store it into the
	// DSPR sample ring.
	a.Label("isr_adc")
	saveAll()
	if g.spec.Instrumented {
		g.instrumentInline(a, "isr_adc")
	}
	a.Movw(1, g.adcBase+periph.RegResult)
	a.Ldw(2, 1, 0)
	a.Ldw(3, regBase, offRingIdx)
	a.Lea(1, regBase, offRing)
	a.Add(1, 1, 3)
	a.Stw(2, 1, 0)
	a.Addi(3, 3, 4)
	a.Andi(3, 3, 63)
	a.Stw(3, regBase, offRingIdx)
	restoreAll()
	a.Rfe()

	// System timer: tick counter.
	a.Label("isr_timer")
	saveAll()
	if g.spec.Instrumented {
		g.instrumentInline(a, "isr_timer")
	}
	a.Ldw(1, regBase, offTick)
	a.Addi(1, 1, 1)
	a.Stw(1, regBase, offTick)
	restoreAll()
	a.Rfe()

	// FlexRay receive: pop frames from the static-segment buffer, fold
	// them into the diagnostic state, and arm the next TX slot with the
	// latest filter output (the gateway pattern).
	if g.spec.FlexRay {
		a.Label("isr_flexray")
		saveAll()
		if g.spec.Instrumented {
			g.instrumentInline(a, "isr_flexray")
		}
		a.Movw(1, g.frBase)
		a.Ldw(2, 1, periph.RegResult) // pop the frame
		a.Ldw(3, regBase, offDiagState)
		a.Xor(3, 3, 2)
		a.Stw(3, regBase, offDiagState)
		a.Ldw(4, regBase, offFilterOut)
		a.Stw(4, 1, periph.RegPeriod) // arm TX with the filtered value
		restoreAll()
		a.Rfe()
	}

	// CAN receive (only when handled on the TriCore): drain the FIFO into
	// an SRAM message buffer.
	if !g.spec.CANOnPCP && !g.spec.CANViaDMA {
		a.Label("isr_can")
		saveAll()
		if g.spec.Instrumented {
			g.instrumentInline(a, "isr_can")
		}
		a.Movw(1, g.canBase)
		a.Ldw(2, 1, periph.RegStatus)
		a.Label("can_drain")
		a.Beq(2, regZero, "can_done")
		a.Ldw(3, 1, periph.RegResult)
		a.Ldw(4, regBase, offCANIdx)
		a.Movw(5, mem.SRAMBase+0x1000)
		a.Add(5, 5, 4)
		a.Stw(3, 5, 0)
		a.Addi(4, 4, 4)
		a.Andi(4, 4, 255)
		a.Stw(4, regBase, offCANIdx)
		a.Addi(2, 2, -1)
		a.Bne(2, regZero, "can_drain")
		a.Label("can_done")
		restoreAll()
		a.Rfe()
	}
}

func (g *gen) instrumentInline(a *isa.Asm, name string) {
	addr := g.profArea + g.profNext
	g.profNext += 4
	g.profCounters[name] = addr
	a.Movw(1, addr)
	a.Ldw(2, 1, 0)
	a.Addi(2, 2, 1)
	a.Stw(2, 1, 0)
}

// buildPCPChannel assembles the CAN-drain channel program for the PCP
// (the HW/SW-split variant where peripheral handling is offloaded).
func (g *gen) buildPCPChannel() (*isa.Program, error) {
	a := isa.NewAsm(mem.PRAMBase + 0x1000)
	a.Label("pcp_can_rx")
	a.Movw(1, g.canBase)
	a.Ldw(2, 1, periph.RegStatus)
	a.Beq(2, regZero, "pcp_done")
	a.Label("pcp_drain")
	a.Ldw(3, 1, periph.RegResult)
	a.Movw(4, mem.PRAMBase+0x2000)
	a.Ldw(5, 4, 4) // buffer index kept in PRAM
	a.Add(6, 4, 5)
	a.Stw(3, 6, 8)
	a.Addi(5, 5, 4)
	a.Andi(5, 5, 255)
	a.Stw(5, 4, 4)
	a.Addi(2, 2, -1)
	a.Bne(2, regZero, "pcp_drain")
	a.Label("pcp_done")
	a.Rfe()
	return a.Assemble()
}

// patchJumpTable writes the filler jump table into flash at jt.
func (g *gen) patchJumpTable(s *soc.SoC, jt uint32, prog *isa.Program) {
	if len(g.fillers) == 0 {
		return
	}
	buf := make([]byte, len(g.fillers)*4)
	for i, name := range g.fillers {
		addr := symAddr(prog, name)
		buf[i*4] = byte(addr)
		buf[i*4+1] = byte(addr >> 8)
		buf[i*4+2] = byte(addr >> 16)
		buf[i*4+3] = byte(addr >> 24)
	}
	s.Flash.Load(jt, buf)
	g.jtAddr = jt
}

// writeConfig stores the runtime configuration words the init code loads.
func (g *gen) writeConfig(s *soc.SoC, app *App) {
	w := func(off uint32, v uint32) {
		s.Flash.Load(g.cfgAddr+off, []byte{byte(v), byte(v >> 8), byte(v >> 16), byte(v >> 24)})
	}
	w(cfgTableBase, app.TableBase)
	w(cfgEEPROM, app.EEPROMBase)
	w(cfgJumpTable, g.jtAddr)
}
