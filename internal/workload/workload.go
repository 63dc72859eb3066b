// Package workload generates synthetic automotive customer applications.
//
// The paper's methodology is explicitly built on the premise that the
// microcontroller vendor cannot obtain customer software: applications are
// proprietary, differ per customer even for the same function ("different
// HW/SW split, ... sometimes completely different algorithms, ... using on
// chip resources (CPU, PCP, DMA, timer cells, etc.) in a different way"),
// and future applications do not exist yet. This package substitutes that
// unavailable population with a parameterized generator: every Spec is one
// "customer application" — an interrupt-driven engine-control-style
// program assembled from task templates with customer-specific structure
// (code footprint, lookup-table sizes and placement, filter lengths,
// branchiness, ISR rates, and the TriCore/PCP/DMA partitioning).
//
// All randomness is seed-derived; a Spec always generates the identical
// application.
package workload

import (
	"fmt"

	"repro/internal/dma"
	"repro/internal/irq"
	"repro/internal/isa"
	"repro/internal/mem"
	"repro/internal/periph"
	"repro/internal/sim"
	"repro/internal/soc"
	"repro/internal/tricore"
)

// Spec parameterizes one synthetic customer application.
type Spec struct {
	Name string
	Seed uint64

	// Code and data structure.
	CodeKB          int  // filler-function footprint stressing the I-cache
	TableKB         int  // lookup tables (power-of-two words)
	TablesInScratch bool // map tables to DSPR instead of flash (a customer mapping choice)
	FilterTaps      int  // FIR length of the signal-filter task
	DiagBranches    int  // branchy diagnostic checks per main iteration
	BranchLoops     int  // taken-branch loop iterations of the branchy task (0 = task off)
	CallDepth       int  // call/return ladder depth of the branchy task (max 8)

	// Real-time configuration (periods in CPU cycles).
	ADCPeriod   uint64
	TimerPeriod uint64
	CANMeanGap  uint64

	// HW/SW split.
	CANOnPCP   bool // CAN handling as a PCP channel program
	CANViaDMA  bool // CAN FIFO drained by a DMA channel
	EEPROMEmul bool // periodic EEPROM-emulation flash writes

	// Optional tasks (further customer diversity).
	CRCTask     bool // software CRC over the received CAN payload buffer
	ObserverDim int  // state-observer matrix-vector size (0 = off, max 8)
	FlexRay     bool // time-triggered FlexRay traffic handled by an ISR

	// Instrumented injects software profiling instrumentation (counter
	// increment per function entry) — the intrusive baseline the MCDS
	// approach is compared against (experiment E5).
	Instrumented bool

	// CoreIndex selects which TriCore the application runs on (0 or 1;
	// 1 requires a SecondCore SoC). Code is placed in the upper flash
	// half and interrupts route to the second core's provider.
	CoreIndex int
}

// Validate normalizes and checks the spec.
func (sp *Spec) Validate() error {
	if sp.CodeKB < 0 || sp.CodeKB > 512 {
		return fmt.Errorf("workload %s: CodeKB %d out of range", sp.Name, sp.CodeKB)
	}
	if sp.TableKB <= 0 || sp.TableKB > 512 {
		return fmt.Errorf("workload %s: TableKB %d out of range", sp.Name, sp.TableKB)
	}
	if sp.FilterTaps <= 0 || sp.FilterTaps > 64 {
		return fmt.Errorf("workload %s: FilterTaps %d out of range", sp.Name, sp.FilterTaps)
	}
	if sp.BranchLoops < 0 || sp.BranchLoops > 256 {
		return fmt.Errorf("workload %s: BranchLoops %d out of range", sp.Name, sp.BranchLoops)
	}
	if sp.CallDepth < 0 || sp.CallDepth > 8 {
		return fmt.Errorf("workload %s: CallDepth %d out of range", sp.Name, sp.CallDepth)
	}
	if sp.ADCPeriod == 0 || sp.TimerPeriod == 0 || sp.CANMeanGap == 0 {
		return fmt.Errorf("workload %s: zero period", sp.Name)
	}
	if sp.CANOnPCP && sp.CANViaDMA {
		return fmt.Errorf("workload %s: CAN cannot be on PCP and DMA at once", sp.Name)
	}
	if sp.ObserverDim < 0 || sp.ObserverDim > 8 {
		return fmt.Errorf("workload %s: ObserverDim %d out of range", sp.Name, sp.ObserverDim)
	}
	if sp.CoreIndex < 0 || sp.CoreIndex > 1 {
		return fmt.Errorf("workload %s: CoreIndex %d out of range", sp.Name, sp.CoreIndex)
	}
	return nil
}

// DSPR layout used by the generated code, relative to the reserved base
// register r10 (never clobbered by generated code).
const (
	offSaveR1     = 0 // ISR register save slots
	offSaveR2     = 4
	offSaveR3     = 8
	offSaveR4     = 12
	offSaveR5     = 16
	offTick       = 20 // timer tick counter
	offRingIdx    = 24 // ADC ring write index (bytes)
	offCANIdx     = 28 // CAN SRAM buffer index
	offTableBase  = 32 // lookup table base address (flash or DSPR)
	offDiagState  = 36
	offEeprom     = 40 // EEPROM emulation flash base
	offJumpTable  = 44 // filler jump table address
	offFilterOut  = 48
	offLookupOut  = 52
	offCRCOut     = 56
	offBranchOut  = 60  // branchy task result
	offBranchSave = 128 // branchy link-save slots (task entry + ladder, ≤ 9 words)
	offObserver   = 192 // state-observer vector (up to 8 words) + results
	offRing       = 64  // ADC sample ring, 16 words
)

// App is a generated application loaded into a SoC.
type App struct {
	Spec Spec
	SoC  *soc.SoC

	Prog *isa.Program // TriCore image (flash)

	TableBase  uint32 // lookup table location actually used
	SaveBase   uint32 // r10 base in DSPR
	EEPROMBase uint32 // flash area used by EEPROM emulation

	// InstrumentedFuncs maps function name to its software-profiling
	// counter address (only when Spec.Instrumented).
	InstrumentedFuncs map[string]uint32

	CAN         *periph.CANNode
	ADC         *periph.ADC
	FlexRayNode *periph.FlexRayNode // nil unless Spec.FlexRay
}

// Build generates the application for spec and installs it into s: code
// into flash, tables into flash or DSPR, the PCP channel program into
// PRAM, and the peripheral/interrupt/DMA configuration into the SoC. The
// CPU is reset to the entry point; Run the clock to execute.
func Build(s *soc.SoC, spec Spec) (*App, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	if spec.CoreIndex == 1 && s.CPU1 == nil {
		return nil, fmt.Errorf("workload %s: CoreIndex 1 on a SoC without a second core", spec.Name)
	}
	rng := sim.NewRNG(spec.Seed)
	saveBase := uint32(mem.DSPRBase)
	if spec.CoreIndex == 1 {
		saveBase = mem.DSPR1Base
	}
	app := &App{Spec: spec, SoC: s, SaveBase: saveBase}

	// --- memory plan ---
	tableWords := nextPow2(uint32(spec.TableKB) * 1024 / 4)
	if spec.TablesInScratch {
		// The scratch copy must fit between the work area and the
		// instrumentation counters.
		maxWords := (s.Cfg.DSPRSize - 0x8000) / 4
		for tableWords > maxWords {
			tableWords /= 2
		}
	}
	g := &gen{spec: spec, rng: rng, app: app, tableWords: tableWords}

	// Peripherals. Vector addresses are patched after assembly. Priorities
	// are offset per core so dual-core builds never collide on shared
	// providers (PCP/DMA).
	cpuProv := irq.ToCPU
	if spec.CoreIndex == 1 {
		cpuProv = irq.ToCPU1
	}
	pOff := uint32(spec.CoreIndex)
	sig := periph.NewSignal(800, 6500, 997, 5, rng.Fork(1))
	adc, adcSRN := s.AddADC(spec.Name+".adc", spec.ADCPeriod, rng.Uint64()%spec.ADCPeriod, sig, 8+pOff, cpuProv, 0)
	_, timerSRN := s.AddTimer(spec.Name+".timer", spec.TimerPeriod, rng.Uint64()%spec.TimerPeriod, 6+pOff, cpuProv, 0)
	app.ADC = adc

	canProv := cpuProv
	switch {
	case spec.CANOnPCP:
		canProv = irq.ToPCP
	case spec.CANViaDMA:
		canProv = irq.ToDMA
	}
	can, canSRN := s.AddCAN(spec.Name+".can", spec.CANMeanGap, 16, 4+pOff, canProv, 0)
	app.CAN = can
	g.adcBase, g.canBase = adc.Base, can.Base

	var frSRN *irq.SRN
	if spec.FlexRay {
		var fr *periph.FlexRayNode
		fr, frSRN = s.AddFlexRay(spec.Name+".flexray", 4000, 8, []int{1, 5}, 3, 8,
			2+pOff, cpuProv, 0)
		app.FlexRayNode = fr
		g.frBase = fr.Base
	}

	// --- TriCore image ---
	prog, err := g.buildMain()
	if err != nil {
		return nil, err
	}
	app.Prog = prog
	s.LoadProgram(prog)

	// Lookup tables: deterministic content. One padding word is left
	// beyond the table because interpolation reads cell pairs.
	tblFlash := alignUp(prog.Base+prog.Size(), 64)
	fillTable(s, tblFlash, tableWords+1, rng.Fork(2))
	app.TableBase = tblFlash
	if spec.TablesInScratch {
		// Customer mapped the hot tables into the data scratchpad.
		scratchBase := saveBase + 0x4000
		dspr := s.DSPR
		if spec.CoreIndex == 1 {
			dspr = s.DSPR1
		}
		buf := make([]byte, 4)
		for i := uint32(0); i <= tableWords; i++ {
			s.Peek(tblFlash+i*4, buf)
			dspr.Write(scratchBase+i*4, buf)
		}
		app.TableBase = scratchBase
	}

	// Jump table for the filler dispatch (indirect branches through a
	// flash-resident table, patched with the final filler addresses).
	jt := alignUp(tblFlash+(tableWords+1)*4, 64)
	g.patchJumpTable(s, jt, prog)

	// EEPROM emulation area: beyond the jump table.
	app.EEPROMBase = alignUp(jt+uint32(len(g.fillers))*4, 256)

	// Patch runtime configuration words the init code loads.
	g.writeConfig(s, app)

	// Patch SRN vectors now that symbols are known.
	adcSRN.Vector = symAddr(prog, "isr_adc")
	timerSRN.Vector = symAddr(prog, "isr_timer")
	if canProv == cpuProv {
		canSRN.Vector = symAddr(prog, "isr_can")
	}
	if frSRN != nil {
		frSRN.Vector = symAddr(prog, "isr_flexray")
	}

	// --- PCP channel program ---
	if spec.CANOnPCP {
		pprog, err := g.buildPCPChannel()
		if err != nil {
			return nil, err
		}
		s.LoadProgram(pprog)
		s.PCP.AddChannel(spec.Name+".can-rx", canSRN, pprog.Base)
	}

	// --- DMA channel ---
	if spec.CANViaDMA {
		s.DMA.AddChannel(&dma.Channel{
			Name: "can-rx", Src: can.Base + periph.RegResult,
			Dst: mem.SRAMBase + 0x1000, SrcInc: 0, DstInc: 4,
			UnitBytes: 4, Count: 1,
		}, canSRN)
	}

	app.InstrumentedFuncs = g.profCounters
	if spec.CoreIndex == 1 {
		s.ResetCPU1(prog.Base)
	} else {
		s.ResetCPU(prog.Base)
	}
	return app, nil
}

// RunFor advances the system by the given horizon (generated applications
// run forever, as engine controllers do).
func (a *App) RunFor(cycles uint64) {
	a.SoC.Clock.Run(cycles)
	if a.CPU().Halted() {
		panic(fmt.Sprintf("workload %s: application halted unexpectedly at pc %#x",
			a.Spec.Name, a.CPU().PC()))
	}
}

// CPU returns the core this application runs on.
func (a *App) CPU() *tricore.CPU {
	if a.Spec.CoreIndex == 1 {
		return a.SoC.CPU1
	}
	return a.SoC.CPU
}

func symAddr(p *isa.Program, name string) uint32 {
	for _, s := range p.Syms {
		if s.Name == name {
			return s.Addr
		}
	}
	panic(fmt.Sprintf("workload: symbol %q missing", name))
}

func alignUp(v, a uint32) uint32 { return (v + a - 1) &^ (a - 1) }

func nextPow2(v uint32) uint32 {
	p := uint32(1)
	for p < v {
		p <<= 1
	}
	return p
}

func fillTable(s *soc.SoC, base, words uint32, rng *sim.RNG) {
	buf := make([]byte, words*4)
	for i := uint32(0); i < words; i++ {
		v := uint32(rng.Uint64())
		buf[i*4] = byte(v)
		buf[i*4+1] = byte(v >> 8)
		buf[i*4+2] = byte(v >> 16)
		buf[i*4+3] = byte(v >> 24)
	}
	s.Flash.Load(base, buf)
}

// Fleet returns n differently-structured customer applications derived
// from baseSeed — the population of profiles the SoC architect aggregates.
func Fleet(n int, baseSeed uint64) []Spec {
	rng := sim.NewRNG(baseSeed)
	specs := make([]Spec, 0, n)
	for i := 0; i < n; i++ {
		r := rng.Fork(uint64(i) + 1)
		sp := Spec{
			Name:         fmt.Sprintf("customer%02d", i),
			Seed:         r.Uint64(),
			CodeKB:       []int{4, 8, 16, 24, 32, 48, 64}[r.Intn(7)],
			TableKB:      []int{4, 8, 16, 32, 64}[r.Intn(5)],
			FilterTaps:   r.Range(4, 32),
			DiagBranches: r.Range(4, 24),
			ADCPeriod:    uint64(r.Range(1500, 6000)),
			TimerPeriod:  uint64(r.Range(4000, 20000)),
			CANMeanGap:   uint64(r.Range(2000, 10000)),
		}
		// HW/SW split varies per customer.
		switch r.Intn(3) {
		case 1:
			sp.CANOnPCP = true
		case 2:
			sp.CANViaDMA = true
		}
		sp.TablesInScratch = r.Bool(0.25)
		sp.EEPROMEmul = r.Bool(0.5)
		sp.CRCTask = r.Bool(0.4)
		if r.Bool(0.4) {
			sp.ObserverDim = r.Range(2, 6)
		}
		sp.FlexRay = r.Bool(0.3)
		specs = append(specs, sp)
	}
	return specs
}
