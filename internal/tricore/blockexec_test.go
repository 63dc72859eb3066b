package tricore

import (
	"testing"

	"repro/internal/isa"
	"repro/internal/mem"
	"repro/internal/sim"
)

// enableDecoder installs a fresh block decoder on the rig's CPU and wires
// the flash write hook the SoC assembly would wire, so self-modifying
// programs stay correct under the cached path.
func (r *rig) enableDecoder() *isa.Decoder {
	d := isa.NewDecoder()
	r.fl.OnWrite = func(addr uint32, n int) {
		cached := mem.CachedView(addr)
		d.InvalidateRange(cached, uint32(n))
		d.InvalidateRange(cached-mem.DeltaUncachedToCached, uint32(n))
	}
	r.cpu.SetDecoder(d)
	return d
}

// dispatchName names a dispatch path in test output.
func dispatchName(block bool) string {
	if block {
		return "chained"
	}
	return "reference"
}

// runObserved executes the program on a fresh rig, per-word or through
// the chained block path, and returns the complete retire stream, the final
// counter values, register file, and cycle count.
func runObserved(t *testing.T, opt rigOpt, prog *isa.Program, limit uint64, block bool) (
	[]Retired, sim.Counters, [isa.NumRegs]uint32, uint64) {
	t.Helper()
	r := newRig(t, opt)
	if block {
		r.enableDecoder()
	}
	r.cpu.TraceEnabled = true
	var retired []Retired
	// Drain after the CPU each cycle, the way the MCDS observation block
	// does in the full SoC.
	r.clock.Attach("collect", sim.TickerFunc(func(uint64) {
		retired = append(retired, r.cpu.DrainRetired()...)
	}))
	r.load(t, prog)
	n, _ := r.runToHalt(limit)
	retired = append(retired, r.cpu.DrainRetired()...)
	var regs [isa.NumRegs]uint32
	for i := range regs {
		regs[i] = r.cpu.Reg(i)
	}
	return retired, *r.cpu.Counters(), regs, n
}

// diffRun runs prog per-word and chained and requires every observable —
// retire stream, counters, registers, cycles — to match the per-word
// reference exactly.
func diffRun(t *testing.T, opt rigOpt, prog *isa.Program, limit uint64) {
	t.Helper()
	retRef, ctrRef, regRef, cycRef := runObserved(t, opt, prog, limit, false)
	ret, ctr, reg, cyc := runObserved(t, opt, prog, limit, true)
	if cycRef != cyc {
		t.Fatalf("cycle count diverged: per-word %d, chained %d", cycRef, cyc)
	}
	if regRef != reg {
		t.Fatalf("register file diverged:\nper-word %v\nchained  %v", regRef, reg)
	}
	if ctrRef != ctr {
		for ev := 0; ev < sim.NumEvents; ev++ {
			if ctrRef[ev] != ctr[ev] {
				t.Errorf("counter %v diverged: per-word %d, chained %d",
					sim.Event(ev), ctrRef[ev], ctr[ev])
			}
		}
		t.FailNow()
	}
	if len(retRef) != len(ret) {
		t.Fatalf("retire stream length diverged: per-word %d, chained %d", len(retRef), len(ret))
	}
	for i := range retRef {
		if retRef[i] != ret[i] {
			t.Fatalf("retired[%d] diverged:\nper-word %+v\nchained  %+v", i, retRef[i], ret[i])
		}
	}
}

// genProgram emits a random but guaranteed-terminating program from seed:
// straight-line ALU/memory work, forward conditional branches, J/CALL/JR,
// bounded backward LOOPs, CSR traffic, and DBG markers, ending in HALT.
// r1 holds the DSPR data base, r13 the SRAM base, r6 a flash data pointer;
// r9 is reserved for LOOP counters and r11 stays constant.
func genBlockProg(rng *sim.RNG, base uint32, n int) *isa.Program {
	var ins []isa.Instr
	emit := func(in isa.Instr) { ins = append(ins, in) }
	movw := func(rd uint8, v uint32) {
		emit(isa.Instr{Op: isa.OpMOVH, Rd: rd, Imm: int32(v >> 16)})
		emit(isa.Instr{Op: isa.OpORIL, Rd: rd, Imm: int32(v & 0xFFFF)})
	}
	movw(1, mem.DSPRBase+0x1000)
	movw(13, mem.SRAMBase+0x2000)
	movw(6, mem.FlashBase) // reads flash bytes as data through the D-side port
	emit(isa.Instr{Op: isa.OpMOVI, Rd: 11, Imm: 1})
	for r := uint8(2); r <= 5; r++ {
		emit(isa.Instr{Op: isa.OpMOVI, Rd: r, Imm: int32(rng.Intn(1 << 12))})
	}

	gp := func() uint8 { return uint8(rng.Range(2, 5)) } // general-purpose pool
	alu := []isa.Op{isa.OpADD, isa.OpSUB, isa.OpAND, isa.OpOR, isa.OpXOR,
		isa.OpSHL, isa.OpSHR, isa.OpSRA, isa.OpMUL, isa.OpMAC, isa.OpSLT, isa.OpSLTU}
	alui := []isa.Op{isa.OpADDI, isa.OpANDI, isa.OpORI, isa.OpXORI,
		isa.OpSHLI, isa.OpSHRI, isa.OpSLTI}
	cond := []isa.Op{isa.OpBEQ, isa.OpBNE, isa.OpBLT, isa.OpBGE, isa.OpBLTU, isa.OpBGEU}

	straight := func() isa.Instr {
		switch rng.Intn(10) {
		case 0, 1, 2:
			return isa.Instr{Op: alu[rng.Intn(len(alu))], Rd: gp(), Ra: gp(), Rb: gp()}
		case 3, 4:
			op := alui[rng.Intn(len(alui))]
			imm := int32(rng.Intn(64))
			return isa.Instr{Op: op, Rd: gp(), Ra: gp(), Imm: imm}
		case 5:
			base := uint8(1)
			if rng.Bool(0.3) {
				base = 13
			} else if rng.Bool(0.2) {
				base = 6
			}
			op := isa.OpLDW
			if rng.Bool(0.3) {
				op = isa.OpLDB
			}
			return isa.Instr{Op: op, Rd: gp(), Ra: base, Imm: int32(rng.Intn(256)) * 4}
		case 6:
			base := uint8(1)
			if rng.Bool(0.3) {
				base = 13
			}
			op := isa.OpSTW
			if rng.Bool(0.3) {
				op = isa.OpSTB
			}
			return isa.Instr{Op: op, Rd: gp(), Ra: base, Imm: int32(rng.Intn(256)) * 4}
		case 7:
			return isa.Instr{Op: isa.OpLEA, Rd: gp(), Ra: 1, Imm: int32(rng.Intn(1024))}
		case 8:
			if rng.Bool(0.5) {
				return isa.Instr{Op: isa.OpMFCR, Rd: gp(), Imm: int32(rng.Intn(isa.NumCSRs))}
			}
			return isa.Instr{Op: isa.OpMTCR, Ra: gp(), Imm: isa.CsrSYS}
		default:
			if rng.Bool(0.3) {
				return isa.Instr{Op: isa.OpDBG}
			}
			return isa.Instr{Op: isa.OpNOP}
		}
	}

	for len(ins) < n {
		switch rng.Intn(12) {
		case 0: // bounded backward loop: MOVI r9,k; body; LOOP r9,-body
			k := int32(rng.Range(1, 6))
			body := rng.Range(1, 4)
			emit(isa.Instr{Op: isa.OpMOVI, Rd: 9, Imm: k})
			for j := 0; j < body; j++ {
				emit(straight())
			}
			emit(isa.Instr{Op: isa.OpLOOP, Ra: 9, Imm: int32(-body)})
		case 1: // forward conditional branch over live code
			emit(isa.Instr{Op: cond[rng.Intn(len(cond))], Ra: gp(), Rb: gp(),
				Imm: int32(rng.Range(2, 5))})
			for j := 0; j < 4; j++ {
				emit(straight())
			}
		case 2: // deterministically not-taken backward branch (miss path)
			emit(straight())
			emit(isa.Instr{Op: isa.OpBNE, Ra: 11, Rb: 11, Imm: -1})
		case 3: // forward J
			d := int32(rng.Range(2, 4))
			emit(isa.Instr{Op: isa.OpJ, Off24: d})
			for j := int32(0); j < d; j++ {
				emit(straight())
			}
		case 4: // CALL over a one-instruction function returning via JR
			emit(isa.Instr{Op: isa.OpCALL, Off24: 2}) // link = next (the J)
			emit(isa.Instr{Op: isa.OpJ, Off24: 3})    // resume past the JR
			emit(straight())
			emit(isa.Instr{Op: isa.OpJR, Ra: isa.RegLink})
		case 5: // JR to a computed forward address
			d := rng.Range(3, 5)
			// target = pc of the JR + d words; the MOVH/ORIL pair sits
			// before the JR, so the JR is at index len(ins)+2.
			target := base + uint32(len(ins)+2+d)*4
			movw(8, target)
			emit(isa.Instr{Op: isa.OpJR, Ra: 8})
			for j := 0; j < d; j++ {
				emit(straight())
			}
		default:
			emit(straight())
		}
	}
	emit(isa.Instr{Op: isa.OpHALT})

	words := make([]uint32, len(ins))
	for i, in := range ins {
		words[i] = in.Encode()
	}
	return &isa.Program{Base: base, Words: words}
}

var diffOpts = []struct {
	name string
	opt  rigOpt
}{
	{"plain", rigOpt{}},
	{"icache", rigOpt{icache: true}},
	{"caches", rigOpt{icache: true, dcache: true}},
	{"slowflash", rigOpt{flashWS: 8}},
	{"prefetch", rigOpt{icache: true, prefetch: true}},
}

// TestBlockDecodeDifferential proves the decode-once block path retires a
// bit-identical stream (plus counters, registers and cycle counts) against
// the per-word reference path across random programs and memory systems.
func TestBlockDecodeDifferential(t *testing.T) {
	for _, tc := range diffOpts {
		t.Run(tc.name, func(t *testing.T) {
			for seed := uint64(1); seed <= 8; seed++ {
				prog := genBlockProg(sim.NewRNG(seed), mem.FlashBase, 300)
				diffRun(t, tc.opt, prog, 200000)
			}
		})
	}
	t.Run("pspr", func(t *testing.T) {
		for seed := uint64(1); seed <= 8; seed++ {
			prog := genBlockProg(sim.NewRNG(seed^0x5157), mem.PSPRBase, 300)
			diffRun(t, rigOpt{}, prog, 200000)
		}
	})
}

// FuzzBlockDecodeDifferential extends the differential proof to fuzzed
// seeds and memory-system variants.
func FuzzBlockDecodeDifferential(f *testing.F) {
	for seed := uint64(0); seed < 6; seed++ {
		f.Add(seed, uint8(seed))
	}
	f.Fuzz(func(t *testing.T, seed uint64, sel uint8) {
		opt := diffOpts[int(sel)%len(diffOpts)].opt
		base := uint32(mem.FlashBase)
		if sel&0x80 != 0 {
			base = mem.PSPRBase
		}
		prog := genBlockProg(sim.NewRNG(seed), base, 200)
		diffRun(t, opt, prog, 150000)
	})
}

// TestBlockDecodeSelfModify stores a new instruction word over a slot a few
// instructions ahead of the store and requires both dispatch paths to
// execute the *new* instruction — the invalidation-hook contract.
func TestBlockDecodeSelfModify(t *testing.T) {
	// Layout (word index from base):
	//  0-1  movw r2, addr(slot)
	//  2-3  movw r3, encode(addi r4, r4, 1)
	//  4    stw [r2+0], r3
	//  5-8  nops (let the posted store drain and cover fetch lookahead)
	//  9    slot: initially addi r4, r4, 100
	// 10    halt
	patch := isa.Instr{Op: isa.OpADDI, Rd: 4, Ra: 4, Imm: 1}.Encode()
	ins := []isa.Instr{
		{Op: isa.OpMOVH, Rd: 2, Imm: int32((mem.FlashBase + 9*4) >> 16)},
		{Op: isa.OpORIL, Rd: 2, Imm: int32((mem.FlashBase + 9*4) & 0xFFFF)},
		{Op: isa.OpMOVH, Rd: 3, Imm: int32(patch >> 16)},
		{Op: isa.OpORIL, Rd: 3, Imm: int32(patch & 0xFFFF)},
		{Op: isa.OpSTW, Rd: 3, Ra: 2, Imm: 0},
		{Op: isa.OpNOP}, {Op: isa.OpNOP}, {Op: isa.OpNOP}, {Op: isa.OpNOP},
		{Op: isa.OpADDI, Rd: 4, Ra: 4, Imm: 100},
		{Op: isa.OpHALT},
	}
	words := make([]uint32, len(ins))
	for i, in := range ins {
		words[i] = in.Encode()
	}
	prog := &isa.Program{Base: mem.FlashBase, Words: words}

	for _, block := range []bool{false, true} {
		t.Run("mode="+dispatchName(block), func(t *testing.T) {
			_, _, regs, _ := runObserved(t, rigOpt{}, prog, 10000, block)
			if regs[4] != 1 {
				t.Fatalf("r4 = %d, want 1 (the patched instruction)", regs[4])
			}
		})
	}
	diffRun(t, rigOpt{}, prog, 10000)
}

// TestBlockDispatchZeroAlloc pins the warmed chained-dispatch hot path at
// zero heap allocations per simulated chunk, matching the PR5 zero-alloc
// gates on the trace path.
func TestBlockDispatchZeroAlloc(t *testing.T) {
	t.Run("mode=chained", func(t *testing.T) {
		r := newRig(t, rigOpt{icache: true})
		r.enableDecoder()
		// Hot loop with a cross-block back edge: ldw/addi/stw/loop — the
		// periph-heavy bench kernel shape — plus a J so the chained path
		// keeps exercising link follows after warm-up.
		ins := []isa.Instr{
			{Op: isa.OpMOVH, Rd: 1, Imm: int32(mem.DSPRBase >> 16)},
			{Op: isa.OpORIL, Rd: 1, Imm: int32(mem.DSPRBase & 0xFFFF)},
			{Op: isa.OpMOVI, Rd: 9, Imm: 2047},
			{Op: isa.OpLDW, Rd: 2, Ra: 1, Imm: 0},
			{Op: isa.OpADDI, Rd: 2, Ra: 2, Imm: 1},
			{Op: isa.OpSTW, Rd: 2, Ra: 1, Imm: 0},
			{Op: isa.OpLOOP, Ra: 9, Imm: -3},
			{Op: isa.OpMOVI, Rd: 9, Imm: 2047},
			{Op: isa.OpJ, Off24: -5},
		}
		words := make([]uint32, len(ins))
		for i, in := range ins {
			words[i] = in.Encode()
		}
		r.load(t, &isa.Program{Base: mem.FlashBase, Words: words})
		r.clock.Run(20000) // warm caches, the block cache, and chain links

		avg := testing.AllocsPerRun(10, func() {
			r.clock.Run(5000)
		})
		if avg != 0 {
			t.Fatalf("chained hot path allocates: %v allocs per 5000-cycle chunk", avg)
		}
	})
}

// TestChainSeverOnSelfModify warms a call/return/loop spine until chain
// links are installed, then lets the program patch its own code: the flash
// write hook must sever every link (ChainSevers), bump the generation, and
// the patched instruction — not the chained stale block — must execute.
func TestChainSeverOnSelfModify(t *testing.T) {
	r := newRig(t, rigOpt{})
	d := r.enableDecoder()

	slot := uint32(12) // word index of the instruction the program patches
	patch := isa.Instr{Op: isa.OpADDI, Rd: 4, Ra: 4, Imm: 1}.Encode()
	ins := []isa.Instr{
		{Op: isa.OpMOVH, Rd: 2, Imm: int32((mem.FlashBase + slot*4) >> 16)},    // 0
		{Op: isa.OpORIL, Rd: 2, Imm: int32((mem.FlashBase + slot*4) & 0xFFFF)}, // 1
		{Op: isa.OpMOVH, Rd: 3, Imm: int32(patch >> 16)},                       // 2
		{Op: isa.OpORIL, Rd: 3, Imm: int32(patch & 0xFFFF)},                    // 3
		{Op: isa.OpMOVI, Rd: 9, Imm: 50},                                       // 4
		{Op: isa.OpCALL, Off24: 10},                                            // 5: outer — call f (word 15)
		{Op: isa.OpLOOP, Ra: 9, Imm: -1},                                       // 6: back to outer
		{Op: isa.OpSTW, Rd: 3, Ra: 2, Imm: 0},                                  // 7: patch the slot
		{Op: isa.OpNOP}, {Op: isa.OpNOP}, {Op: isa.OpNOP}, {Op: isa.OpNOP},     // 8-11
		{Op: isa.OpADDI, Rd: 4, Ra: 4, Imm: 100}, // 12: slot
		{Op: isa.OpHALT},                         // 13
		{Op: isa.OpNOP},                          // 14
		{Op: isa.OpJR, Ra: isa.RegLink},          // 15: f — return
	}
	words := make([]uint32, len(ins))
	for i, in := range ins {
		words[i] = in.Encode()
	}
	r.load(t, &isa.Program{Base: mem.FlashBase, Words: words})
	n, ok := r.runToHalt(10000)
	if !ok {
		t.Fatalf("did not halt in %d cycles", n)
	}
	st := d.Stats()
	if st.ChainLinks == 0 || st.ChainFollows == 0 {
		t.Fatalf("call/return spine installed no chain links: %+v", st)
	}
	if st.ChainSevers == 0 {
		t.Fatalf("code patch severed no chain links: %+v", st)
	}
	if st.Invalidations == 0 {
		t.Fatalf("code patch did not invalidate: %+v", st)
	}
	if got := r.cpu.Reg(4); got != 1 {
		t.Fatalf("r4 = %d, want 1 (stale chained block executed)", got)
	}
}

// TestCPUHaltWake pins the halt-parking Sleeper contract: a halted core
// reports NoWake, a running one is due every cycle, and Reset re-arms the
// wake schedule so the core resumes under a scheduling clock.
func TestCPUHaltWake(t *testing.T) {
	r := newRig(t, rigOpt{})
	prog := &isa.Program{Base: mem.PSPRBase, Words: []uint32{
		isa.Instr{Op: isa.OpADDI, Rd: 2, Ra: 2, Imm: 7}.Encode(),
		isa.Instr{Op: isa.OpHALT}.Encode(),
	}}
	r.load(t, prog)
	if w := r.cpu.NextWake(5); w != 5 {
		t.Fatalf("running core NextWake(5) = %d, want 5", w)
	}
	r.run(t, 100)
	if w := r.cpu.NextWake(7); w != sim.NoWake {
		t.Fatalf("halted core NextWake = %d, want NoWake", w)
	}
	if got := r.cpu.Reg(2); got != 7 {
		t.Fatalf("r2 = %d, want 7", got)
	}
	// Reset must un-park the core: with only Sleepers attached the clock
	// would otherwise skip it forever.
	r.cpu.Reset(prog.Base, mem.DSPRBase+0x7000)
	r.cpu.SetReg(2, 0)
	n, ok := r.runToHalt(100)
	if !ok || n == 0 {
		t.Fatalf("core did not resume after Reset (ran %d, halted=%v)", n, ok)
	}
	if got := r.cpu.Reg(2); got != 7 {
		t.Fatalf("r2 after resume = %d, want 7", got)
	}
}
