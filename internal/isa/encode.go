package isa

import "fmt"

// Instr is a decoded instruction. Decode and Encode round-trip exactly for
// every value check accepts.
type Instr struct {
	Op    Op
	Rd    uint8 // destination register (also source for STW/STB/MAC/ORIL)
	Ra    uint8 // first source register
	Rb    uint8 // second source register
	Imm   int32 // sign- or zero-extended immediate, per opcode
	Off24 int32 // signed word offset for J/CALL
}

// Valid reports whether in is an instruction a core executes: a defined
// opcode and, for mfcr and mtcr, a defined CSR. Every other word is an
// illegal instruction. This is the one legality rule: the block builder,
// the per-word issue path and check all apply it.
func (in Instr) Valid() bool {
	if in.Op == OpMFCR || in.Op == OpMTCR {
		return uint32(in.Imm) < NumCSRs
	}
	return in.Op.Valid()
}

// check reports the first field of in that its opcode's encoding cannot
// hold: an undefined opcode, a register past r15, an immediate outside the
// field's range, or a value in a field the form does not encode; or, for
// an encodable word, an undefined CSR (Valid).
func (in Instr) check() error {
	if !in.Op.Valid() {
		return fmt.Errorf("undefined opcode %#02x", uint8(in.Op))
	}
	if in.Rd|in.Ra|in.Rb >= NumRegs {
		return fmt.Errorf("%s: register out of range", in.Op)
	}
	info := &opTable[in.Op]
	bits := info.form.immBits()
	v, unused, what := in.Imm, in.Off24, "immediate"
	switch info.form {
	case formJump:
		v, unused, what = in.Off24, in.Imm|int32(in.Rd|in.Ra|in.Rb), "offset"
	case formImm16:
		unused |= int32(in.Ra | in.Rb)
	case formBranch, formLoop:
		what = "offset"
	}
	if unused != 0 {
		return fmt.Errorf("%s: field set that the encoding has no room for", in.Op)
	}
	lo, hi := int32(-1)<<(bits-1), int32(1)<<(bits-1)-1
	if info.flags&flagZext != 0 {
		lo, hi = 0, 1<<bits-1
	}
	if v < lo || v > hi {
		return fmt.Errorf("%s %s %d out of range [%d, %d]", in.Op, what, v, lo, hi)
	}
	if !in.Valid() {
		return fmt.Errorf("%s: undefined csr%d", in.Op, in.Imm)
	}
	return nil
}

// Encode packs the instruction into its 32-bit representation. It panics
// on what check rejects; the assemblers report those as errors instead.
func (in Instr) Encode() uint32 {
	if err := in.check(); err != nil {
		panic("isa: " + err.Error())
	}
	w := uint32(in.Op) << 24
	switch opTable[in.Op].form {
	case formJump:
		return w | uint32(in.Off24)&0xFFFFFF
	case formImm16:
		return w | uint32(in.Rd)<<20 | uint32(in.Imm)&0xFFFF
	default:
		return w | uint32(in.Rd)<<20 | uint32(in.Ra)<<16 |
			uint32(in.Rb)<<12 | uint32(in.Imm)&0xFFF
	}
}

// ext widens a bits-wide immediate field, zero- or sign-extending it.
func ext(v uint32, bits uint, zext bool) int32 {
	if zext {
		return int32(v)
	}
	shift := 32 - bits
	return int32(v<<shift) >> shift
}

// Decode unpacks a 32-bit instruction word. Unknown opcodes decode to an
// Instr whose Op is out of range, with the rd/ra/rb+imm12 fields filled;
// callers detect those and undefined CSRs with Instr.Valid.
func Decode(w uint32) Instr {
	op := Op(w >> 24)
	in := Instr{Op: op}
	f, zext := formRRR, false
	if op < opMax {
		info := &opTable[op]
		f, zext = info.form, info.flags&flagZext != 0
	}
	switch f {
	case formJump:
		in.Off24 = ext(w&0xFFFFFF, 24, false)
	case formImm16:
		in.Rd = uint8(w >> 20 & 0xF)
		in.Imm = ext(w&0xFFFF, 16, zext)
	default:
		in.Rd = uint8(w >> 20 & 0xF)
		in.Ra = uint8(w >> 16 & 0xF)
		in.Rb = uint8(w >> 12 & 0xF)
		in.Imm = ext(w&0xFFF, 12, zext)
	}
	return in
}

// target is the field a branch operand lives in: Off24 for jumps, Imm for
// the other branch forms.
func (in *Instr) target() *int32 {
	if opTable[in.Op].form == formJump {
		return &in.Off24
	}
	return &in.Imm
}

// Disasm renders the word w as assembler text that ParseAsm reads back:
// an illegal word (Decode(w) not Valid: an undefined opcode or CSR) as a
// .word directive holding w, any other as its instruction.
func Disasm(w uint32) string {
	if in := Decode(w); in.Valid() {
		return in.String()
	}
	return fmt.Sprintf(".word 0x%08x", w)
}

// String renders the instruction in assembler syntax, operand by operand
// as its form lists them.
func (in Instr) String() string {
	if !in.Op.Valid() {
		return fmt.Sprintf(".word 0x%02x??", uint8(in.Op))
	}
	b := []byte(in.Op.String())
	for i, arg := range formOperands[opTable[in.Op].form] {
		sep := ", "
		if i == 0 {
			sep = " "
		}
		switch arg {
		case argRd:
			b = fmt.Appendf(b, "%sr%d", sep, in.Rd)
		case argRa:
			b = fmt.Appendf(b, "%sr%d", sep, in.Ra)
		case argRb:
			b = fmt.Appendf(b, "%sr%d", sep, in.Rb)
		case argImm:
			b = fmt.Appendf(b, "%s%d", sep, in.Imm)
		case argMem:
			b = fmt.Appendf(b, "%s[r%d%+d]", sep, in.Ra, in.Imm)
		case argTarget:
			b = fmt.Appendf(b, "%s%+d", sep, *in.target())
		case argCSR:
			b = fmt.Appendf(b, "%scsr%d", sep, in.Imm)
		}
	}
	return string(b)
}
