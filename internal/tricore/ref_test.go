package tricore

import (
	"testing"
	"testing/quick"

	"repro/internal/isa"
	"repro/internal/mem"
)

// refMachine is a plain architectural interpreter (no pipeline, no timing)
// used as a differential oracle: whatever the 3-way superscalar core
// computes, the sequential reference must compute too.
type refMachine struct {
	regs [isa.NumRegs]uint32
	csr  [isa.NumCSRs]uint32
	pc   uint32
	mem  map[uint32]byte
	prog map[uint32]uint32
	halt bool
}

func newRef(p *isa.Program) *refMachine {
	m := &refMachine{mem: make(map[uint32]byte), prog: make(map[uint32]uint32), pc: p.Base}
	for i, w := range p.Words {
		m.prog[p.Base+uint32(i)*4] = w
	}
	return m
}

func (m *refMachine) load(addr uint32, size int) uint32 {
	var v uint32
	for i := 0; i < size; i++ {
		v |= uint32(m.mem[addr+uint32(i)]) << (8 * uint(i))
	}
	return v
}

func (m *refMachine) store(addr uint32, v uint32, size int) {
	for i := 0; i < size; i++ {
		m.mem[addr+uint32(i)] = byte(v >> (8 * uint(i)))
	}
}

func (m *refMachine) step() {
	w, ok := m.prog[m.pc]
	if !ok {
		m.halt = true
		return
	}
	in := isa.Decode(w)
	ra, rb := m.regs[in.Ra], m.regs[in.Rb]
	next := m.pc + 4
	wr := func(v uint32) { m.regs[in.Rd] = v }
	switch in.Op {
	case isa.OpNOP, isa.OpDBG:
	case isa.OpMOVI:
		wr(uint32(in.Imm))
	case isa.OpMOVH:
		wr(uint32(in.Imm) << 16)
	case isa.OpORIL:
		wr(m.regs[in.Rd] | uint32(in.Imm))
	case isa.OpADD:
		wr(ra + rb)
	case isa.OpSUB:
		wr(ra - rb)
	case isa.OpAND:
		wr(ra & rb)
	case isa.OpOR:
		wr(ra | rb)
	case isa.OpXOR:
		wr(ra ^ rb)
	case isa.OpSHL:
		wr(ra << (rb & 31))
	case isa.OpSHR:
		wr(ra >> (rb & 31))
	case isa.OpSRA:
		wr(uint32(int32(ra) >> (rb & 31)))
	case isa.OpMUL:
		wr(ra * rb)
	case isa.OpMAC:
		wr(m.regs[in.Rd] + ra*rb)
	case isa.OpSLT:
		wr(boolTo(int32(ra) < int32(rb)))
	case isa.OpSLTU:
		wr(boolTo(ra < rb))
	case isa.OpADDI:
		wr(ra + uint32(in.Imm))
	case isa.OpANDI:
		wr(ra & uint32(in.Imm))
	case isa.OpORI:
		wr(ra | uint32(in.Imm))
	case isa.OpXORI:
		wr(ra ^ uint32(in.Imm))
	case isa.OpSHLI:
		wr(ra << (uint32(in.Imm) & 31))
	case isa.OpSHRI:
		wr(ra >> (uint32(in.Imm) & 31))
	case isa.OpSLTI:
		wr(boolTo(int32(ra) < in.Imm))
	case isa.OpLEA:
		wr(ra + uint32(in.Imm))
	case isa.OpLDW:
		wr(m.load(ra+uint32(in.Imm), 4))
	case isa.OpLDB:
		wr(m.load(ra+uint32(in.Imm), 1))
	case isa.OpSTW:
		m.store(ra+uint32(in.Imm), m.regs[in.Rd], 4)
	case isa.OpSTB:
		m.store(ra+uint32(in.Imm), m.regs[in.Rd], 1)
	case isa.OpBEQ, isa.OpBNE, isa.OpBLT, isa.OpBGE, isa.OpBLTU, isa.OpBGEU:
		taken := false
		switch in.Op {
		case isa.OpBEQ:
			taken = ra == rb
		case isa.OpBNE:
			taken = ra != rb
		case isa.OpBLT:
			taken = int32(ra) < int32(rb)
		case isa.OpBGE:
			taken = int32(ra) >= int32(rb)
		case isa.OpBLTU:
			taken = ra < rb
		case isa.OpBGEU:
			taken = ra >= rb
		}
		if taken {
			m.pc = m.pc + uint32(in.Imm)*4
			return
		}
	case isa.OpLOOP:
		m.regs[in.Ra] = ra - 1
		if ra-1 != 0 {
			m.pc = m.pc + uint32(in.Imm)*4
			return
		}
	case isa.OpJ:
		m.pc = m.pc + uint32(in.Off24)*4
		return
	case isa.OpCALL:
		m.regs[isa.RegLink] = next
		m.pc = m.pc + uint32(in.Off24)*4
		return
	case isa.OpJR:
		m.pc = ra
		return
	case isa.OpMFCR:
		if in.Imm != isa.CsrCCNT { // cycle counter is timing-dependent
			wr(m.csr[in.Imm])
		}
	case isa.OpMTCR:
		if in.Imm != isa.CsrCCNT && in.Imm != isa.CsrCoreID {
			m.csr[in.Imm] = ra
		}
	case isa.OpRFE, isa.OpHALT:
		m.halt = true
		return
	}
	m.pc = next
}

func boolTo(b bool) uint32 {
	if b {
		return 1
	}
	return 0
}

// genProgram builds a random but well-formed straight-line-plus-loops
// program from a byte recipe. All memory accesses stay inside the DSPR.
func genProgram(recipe []byte) *isa.Program {
	a := isa.NewAsm(mem.FlashBase)
	a.Movw(1, mem.DSPRBase+0x100) // memory base
	// Seed registers deterministically from the recipe.
	for r := 2; r <= 8; r++ {
		v := int32(7 * r)
		if len(recipe) > r {
			v = int32(recipe[r])
		}
		a.Movi(r, v)
	}
	loops := 0
	for i := 0; i+1 < len(recipe); i += 2 {
		op, arg := recipe[i], int32(recipe[i+1])
		rd := 2 + int(op>>4)%7
		ra := 2 + int(arg)%7
		switch op % 12 {
		case 0:
			a.Add(rd, ra, 2+int(op)%7)
		case 1:
			a.Sub(rd, ra, 2+int(op)%7)
		case 2:
			a.Mul(rd, ra, 2+int(op)%7)
		case 3:
			a.Mac(rd, ra, 2+int(op)%7)
		case 4:
			a.Addi(rd, ra, arg-128)
		case 5:
			a.Xori(rd, ra, arg)
		case 6:
			a.Shli(rd, ra, arg%31+1)
		case 7:
			a.Ldw(rd, 1, (arg%32)*4)
		case 8:
			a.Stw(rd, 1, (arg%32)*4)
		case 9:
			a.Slt(rd, ra, 2+int(op)%7)
		case 10:
			// Short forward branch over one instruction.
			lbl := a.PC() // unique label from position
			name := labelName(lbl)
			a.Beq(ra, 2+int(op)%7, name)
			a.Addi(rd, rd, 1)
			a.Label(name)
		case 11:
			if loops < 4 {
				loops++
				cnt := 9 + int(arg)%7
				a.Movi(8, int32(cnt))
				name := labelName(a.PC())
				a.Label(name)
				a.Addi(rd, rd, 3)
				a.Loop(8, name)
			}
		}
	}
	a.Halt()
	p, err := a.Assemble()
	if err != nil {
		panic(err)
	}
	return p
}

func labelName(pc uint32) string {
	return "L" + string(rune('a'+pc>>8&0xF)) + string(rune('a'+pc>>4&0xF)) + string(rune('a'+pc&0xF)) + string(rune('a'+pc>>12&0xF))
}

// TestDifferentialVsReference runs random programs on the pipelined core
// and on the sequential reference machine; architectural state (registers
// and memory) must match exactly — pipelining, caches, buffers, and
// superscalar issue are invisible to software.
func TestDifferentialVsReference(t *testing.T) {
	f := func(recipe []byte) bool {
		if len(recipe) > 120 {
			recipe = recipe[:120]
		}
		p := genProgram(recipe)

		// Reference.
		ref := newRef(p)
		for i := 0; i < 200_000 && !ref.halt; i++ {
			ref.step()
		}
		if !ref.halt {
			return true // pathological non-terminating recipe; skip
		}

		// Pipelined core, on the full memory system.
		for _, opt := range []rigOpt{{icache: true, dcache: true, prefetch: true}, {}} {
			r := newRigQuiet(t, opt)
			r.load(t, p)
			if _, ok := r.runToHalt(5_000_000); !ok {
				t.Logf("core did not halt for recipe %v", recipe)
				return false
			}
			for reg := 2; reg <= 8; reg++ {
				if r.cpu.Reg(reg) != ref.regs[reg] {
					t.Logf("r%d: core %#x ref %#x", reg, r.cpu.Reg(reg), ref.regs[reg])
					return false
				}
			}
			// Compare the touched DSPR window.
			for off := uint32(0); off < 32*4; off += 4 {
				addr := uint32(mem.DSPRBase) + 0x100 + off
				if got, want := r.dspr.Read32(addr), ref.load(addr, 4); got != want {
					t.Logf("mem %#x: core %#x ref %#x", addr, got, want)
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 120}); err != nil {
		t.Fatal(err)
	}
}

// newRigQuiet is newRig without the test-helper peek fatal (differential
// programs never leave the mapped regions, so the same rig works).
func newRigQuiet(t *testing.T, opt rigOpt) *rig { return newRig(t, opt) }
