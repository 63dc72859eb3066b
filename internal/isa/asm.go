package isa

import (
	"errors"
	"fmt"
	"sort"
)

// Asm is a programmatic assembler: workload generators and tests build
// programs by calling mnemonic methods, placing labels, and finally calling
// Assemble, which resolves label references and returns the instruction
// words. Addresses are byte addresses; instructions are 4 bytes.
type Asm struct {
	base   uint32 // load address of the first instruction
	words  []uint32
	labels map[string]uint32 // label -> byte address
	fixups []fixup
	syms   []Symbol
	errs   []error
	line   int // source line ParseAsm is assembling; 0 for method calls
}

type fixup struct {
	index int    // instruction index needing patching
	label string // target label
	line  int    // source line of the reference (Asm.line)
}

// Symbol is a named address in the assembled program, used by profiling to
// map trace addresses back to functions.
type Symbol struct {
	Name string
	Addr uint32
}

// NewAsm returns an assembler that places the first instruction at base.
func NewAsm(base uint32) *Asm {
	return &Asm{base: base, labels: make(map[string]uint32)}
}

// PC returns the byte address of the next instruction to be emitted.
func (a *Asm) PC() uint32 { return a.base + uint32(len(a.words))*4 }

// fail records an assembler error, naming its source line when it has one.
func (a *Asm) fail(line int, err error) {
	if line > 0 {
		err = fmt.Errorf("line %d: %w", line, err)
	}
	a.errs = append(a.errs, err)
}

// Label places (or re-places) a named label at the current PC. Labels
// starting with a letter are also recorded as symbols.
func (a *Asm) Label(name string) *Asm {
	if _, dup := a.labels[name]; dup {
		a.fail(a.line, fmt.Errorf("duplicate label %q", name))
		return a
	}
	a.labels[name] = a.PC()
	a.syms = append(a.syms, Symbol{Name: name, Addr: a.PC()})
	return a
}

// emit appends one instruction. A field its encoding cannot hold becomes
// an assembler error and a zero placeholder word.
func (a *Asm) emit(in Instr) *Asm {
	if err := in.check(); err != nil {
		a.fail(a.line, err)
		a.words = append(a.words, 0)
		return a
	}
	a.words = append(a.words, in.Encode())
	return a
}

// emitFixup emits in with a zero branch offset that Assemble patches to
// reach label.
func (a *Asm) emitFixup(in Instr, label string) *Asm {
	a.fixups = append(a.fixups, fixup{index: len(a.words), label: label, line: a.line})
	return a.emit(in)
}

// --- mnemonics ---

// Nop emits a no-operation.
func (a *Asm) Nop() *Asm { return a.emit(Instr{Op: OpNOP}) }

// Movi emits rd = signext(imm16).
func (a *Asm) Movi(rd int, imm int32) *Asm {
	return a.emit(Instr{Op: OpMOVI, Rd: uint8(rd), Imm: imm})
}

// Movw emits one or two instructions loading the full 32-bit constant v
// into rd (MOVH + ORIL, or a single MOVI when v fits).
func (a *Asm) Movw(rd int, v uint32) *Asm {
	if movi := (Instr{Op: OpMOVI, Rd: uint8(rd), Imm: int32(v)}); movi.check() == nil {
		return a.emit(movi)
	}
	a.emit(Instr{Op: OpMOVH, Rd: uint8(rd), Imm: int32(v >> 16)})
	if low := v & 0xFFFF; low != 0 {
		a.emit(Instr{Op: OpORIL, Rd: uint8(rd), Imm: int32(low)})
	}
	return a
}

// op3 emits a three-register ALU instruction.
func (a *Asm) op3(op Op, rd, ra, rb int) *Asm {
	return a.emit(Instr{Op: op, Rd: uint8(rd), Ra: uint8(ra), Rb: uint8(rb)})
}

// Add emits rd = ra + rb.
func (a *Asm) Add(rd, ra, rb int) *Asm { return a.op3(OpADD, rd, ra, rb) }

// Sub emits rd = ra - rb.
func (a *Asm) Sub(rd, ra, rb int) *Asm { return a.op3(OpSUB, rd, ra, rb) }

// Mul emits rd = ra * rb.
func (a *Asm) Mul(rd, ra, rb int) *Asm { return a.op3(OpMUL, rd, ra, rb) }

// Mac emits rd += ra * rb.
func (a *Asm) Mac(rd, ra, rb int) *Asm { return a.op3(OpMAC, rd, ra, rb) }

// And emits rd = ra & rb.
func (a *Asm) And(rd, ra, rb int) *Asm { return a.op3(OpAND, rd, ra, rb) }

// Or emits rd = ra | rb.
func (a *Asm) Or(rd, ra, rb int) *Asm { return a.op3(OpOR, rd, ra, rb) }

// Xor emits rd = ra ^ rb.
func (a *Asm) Xor(rd, ra, rb int) *Asm { return a.op3(OpXOR, rd, ra, rb) }

// Shl emits rd = ra << rb.
func (a *Asm) Shl(rd, ra, rb int) *Asm { return a.op3(OpSHL, rd, ra, rb) }

// Shr emits rd = ra >> rb (logical).
func (a *Asm) Shr(rd, ra, rb int) *Asm { return a.op3(OpSHR, rd, ra, rb) }

// Sra emits rd = ra >> rb (arithmetic).
func (a *Asm) Sra(rd, ra, rb int) *Asm { return a.op3(OpSRA, rd, ra, rb) }

// Slt emits rd = int32(ra) < int32(rb).
func (a *Asm) Slt(rd, ra, rb int) *Asm { return a.op3(OpSLT, rd, ra, rb) }

// opI emits an instruction of the rd, ra, imm12 layout: immediate ALU,
// load, store and lea.
func (a *Asm) opI(op Op, rd, ra int, imm int32) *Asm {
	return a.emit(Instr{Op: op, Rd: uint8(rd), Ra: uint8(ra), Imm: imm})
}

// Addi emits rd = ra + imm.
func (a *Asm) Addi(rd, ra int, imm int32) *Asm { return a.opI(OpADDI, rd, ra, imm) }

// Andi emits rd = ra & imm (imm zero-extended).
func (a *Asm) Andi(rd, ra int, imm int32) *Asm { return a.opI(OpANDI, rd, ra, imm) }

// Ori emits rd = ra | imm (imm zero-extended).
func (a *Asm) Ori(rd, ra int, imm int32) *Asm { return a.opI(OpORI, rd, ra, imm) }

// Xori emits rd = ra ^ imm (imm zero-extended).
func (a *Asm) Xori(rd, ra int, imm int32) *Asm { return a.opI(OpXORI, rd, ra, imm) }

// Shli emits rd = ra << imm.
func (a *Asm) Shli(rd, ra int, imm int32) *Asm { return a.opI(OpSHLI, rd, ra, imm) }

// Shri emits rd = ra >> imm (logical).
func (a *Asm) Shri(rd, ra int, imm int32) *Asm { return a.opI(OpSHRI, rd, ra, imm) }

// Slti emits rd = int32(ra) < imm.
func (a *Asm) Slti(rd, ra int, imm int32) *Asm { return a.opI(OpSLTI, rd, ra, imm) }

// Ldw emits rd = mem32[ra+off].
func (a *Asm) Ldw(rd, ra int, off int32) *Asm { return a.opI(OpLDW, rd, ra, off) }

// Ldb emits rd = zeroext(mem8[ra+off]).
func (a *Asm) Ldb(rd, ra int, off int32) *Asm { return a.opI(OpLDB, rd, ra, off) }

// Stw emits mem32[ra+off] = rd.
func (a *Asm) Stw(rd, ra int, off int32) *Asm { return a.opI(OpSTW, rd, ra, off) }

// Stb emits mem8[ra+off] = rd.
func (a *Asm) Stb(rd, ra int, off int32) *Asm { return a.opI(OpSTB, rd, ra, off) }

// Lea emits rd = ra + off.
func (a *Asm) Lea(rd, ra int, off int32) *Asm { return a.opI(OpLEA, rd, ra, off) }

// br emits a conditional branch to a label.
func (a *Asm) br(op Op, ra, rb int, label string) *Asm {
	return a.emitFixup(Instr{Op: op, Ra: uint8(ra), Rb: uint8(rb)}, label)
}

// Beq branches to label when ra == rb.
func (a *Asm) Beq(ra, rb int, label string) *Asm { return a.br(OpBEQ, ra, rb, label) }

// Bne branches to label when ra != rb.
func (a *Asm) Bne(ra, rb int, label string) *Asm { return a.br(OpBNE, ra, rb, label) }

// Blt branches to label when int32(ra) < int32(rb).
func (a *Asm) Blt(ra, rb int, label string) *Asm { return a.br(OpBLT, ra, rb, label) }

// Bge branches to label when int32(ra) >= int32(rb).
func (a *Asm) Bge(ra, rb int, label string) *Asm { return a.br(OpBGE, ra, rb, label) }

// Bltu branches to label when ra < rb (unsigned).
func (a *Asm) Bltu(ra, rb int, label string) *Asm { return a.br(OpBLTU, ra, rb, label) }

// Bgeu branches to label when ra >= rb (unsigned).
func (a *Asm) Bgeu(ra, rb int, label string) *Asm { return a.br(OpBGEU, ra, rb, label) }

// J emits an unconditional jump to a label.
func (a *Asm) J(label string) *Asm {
	return a.emitFixup(Instr{Op: OpJ}, label)
}

// Call emits a call (link in R14) to a label.
func (a *Asm) Call(label string) *Asm {
	return a.emitFixup(Instr{Op: OpCALL}, label)
}

// Jr emits pc = ra.
func (a *Asm) Jr(ra int) *Asm { return a.emit(Instr{Op: OpJR, Ra: uint8(ra)}) }

// Ret emits a return (jr R14).
func (a *Asm) Ret() *Asm { return a.Jr(RegLink) }

// Loop emits a hardware-loop branch: if --ra != 0 jump to label.
func (a *Asm) Loop(ra int, label string) *Asm {
	return a.emitFixup(Instr{Op: OpLOOP, Ra: uint8(ra)}, label)
}

// Mfcr emits rd = csr[n].
func (a *Asm) Mfcr(rd, n int) *Asm {
	return a.emit(Instr{Op: OpMFCR, Rd: uint8(rd), Imm: int32(n)})
}

// Mtcr emits csr[n] = ra.
func (a *Asm) Mtcr(n, ra int) *Asm {
	return a.emit(Instr{Op: OpMTCR, Ra: uint8(ra), Imm: int32(n)})
}

// Rfe emits a return from exception.
func (a *Asm) Rfe() *Asm { return a.emit(Instr{Op: OpRFE}) }

// Halt stops the core.
func (a *Asm) Halt() *Asm { return a.emit(Instr{Op: OpHALT}) }

// Dbg emits the debug-marker no-op.
func (a *Asm) Dbg() *Asm { return a.emit(Instr{Op: OpDBG}) }

// Program is an assembled instruction stream plus its symbol table.
type Program struct {
	Base  uint32
	Words []uint32
	Syms  []Symbol
}

// Bytes returns the little-endian byte image of the program.
func (p *Program) Bytes() []byte {
	b := make([]byte, len(p.Words)*4)
	for i, w := range p.Words {
		b[i*4+0] = byte(w)
		b[i*4+1] = byte(w >> 8)
		b[i*4+2] = byte(w >> 16)
		b[i*4+3] = byte(w >> 24)
	}
	return b
}

// Size returns the program size in bytes.
func (p *Program) Size() uint32 { return uint32(len(p.Words)) * 4 }

// SymbolAt returns the name of the innermost symbol covering byte address
// addr, or "" when addr precedes all symbols.
func (p *Program) SymbolAt(addr uint32) string {
	i := sort.Search(len(p.Syms), func(i int) bool { return p.Syms[i].Addr > addr })
	if i == 0 {
		return ""
	}
	return p.Syms[i-1].Name
}

// Assemble resolves all label references and returns the finished program.
// Symbols are returned sorted by address. The error, if any, joins every
// error recorded while building, each naming its source line when the
// program came from ParseAsm.
func (a *Asm) Assemble() (*Program, error) {
	for _, f := range a.fixups {
		target, ok := a.labels[f.label]
		if !ok {
			a.fail(f.line, fmt.Errorf("undefined label %q", f.label))
			continue
		}
		pc := a.base + uint32(f.index)*4
		off := (int64(target) - int64(pc)) / 4
		in := Decode(a.words[f.index])
		*in.target() = int32(off)
		if err := in.check(); err != nil {
			a.fail(f.line, fmt.Errorf("branch to %q: %w", f.label, err))
			continue
		}
		a.words[f.index] = in.Encode()
	}
	if len(a.errs) > 0 {
		return nil, errors.Join(a.errs...)
	}
	syms := make([]Symbol, len(a.syms))
	copy(syms, a.syms)
	sort.Slice(syms, func(i, j int) bool { return syms[i].Addr < syms[j].Addr })
	return &Program{Base: a.base, Words: append([]uint32(nil), a.words...), Syms: syms}, nil
}
