package isa

import (
	"strings"
	"testing"
	"testing/quick"
)

func TestParseAsmBasics(t *testing.T) {
	src := `
	; simple countdown
	.org 0x80000000
start:
	movi r1, 10
	movw r2, 0xDEADBEEF
loop:	addi r1, r1, -1
	bne  r1, r0, loop
	halt
`
	p, err := ParseAsm(src, 0)
	if err != nil {
		t.Fatal(err)
	}
	if p.Base != 0x8000_0000 {
		t.Errorf("base = %#x", p.Base)
	}
	if got := p.SymbolAt(p.Base); got != "start" {
		t.Errorf("symbol = %q", got)
	}
	// movi + (movh+oril) + addi + bne + halt = 6 words.
	if len(p.Words) != 6 {
		t.Errorf("words = %d", len(p.Words))
	}
	br := Decode(p.Words[4])
	if br.Op != OpBNE || br.Imm != -1 {
		t.Errorf("branch = %+v", br)
	}
}

func TestParseAsmMemoryOperands(t *testing.T) {
	src := `
	ldw r1, [r2+8]
	ldw r3, [r2-4]
	ldb r4, [r2]
	stw [sp+16], r5
	stb [r6-1], r7
	lea r8, [r2+100]
`
	p, err := ParseAsm(src, 0)
	if err != nil {
		t.Fatal(err)
	}
	want := []Instr{
		{Op: OpLDW, Rd: 1, Ra: 2, Imm: 8},
		{Op: OpLDW, Rd: 3, Ra: 2, Imm: -4},
		{Op: OpLDB, Rd: 4, Ra: 2},
		{Op: OpSTW, Rd: 5, Ra: RegSP, Imm: 16},
		{Op: OpSTB, Rd: 7, Ra: 6, Imm: -1},
		{Op: OpLEA, Rd: 8, Ra: 2, Imm: 100},
	}
	for i, w := range want {
		if got := Decode(p.Words[i]); got != w {
			t.Errorf("word %d: %+v want %+v", i, got, w)
		}
	}
}

func TestParseAsmDirectivesAndCSR(t *testing.T) {
	src := `
	.word 0x12345678
	mfcr r1, csr1
	mtcr csr0, r2
	jr lr
	ret
`
	p, err := ParseAsm(src, 0x1000)
	if err != nil {
		t.Fatal(err)
	}
	if p.Words[0] != 0x12345678 {
		t.Errorf("raw word = %#x", p.Words[0])
	}
	if in := Decode(p.Words[1]); in.Op != OpMFCR || in.Imm != CsrCCNT {
		t.Errorf("mfcr = %+v", in)
	}
	if in := Decode(p.Words[3]); in.Op != OpJR || in.Ra != RegLink {
		t.Errorf("jr lr = %+v", in)
	}
}

func TestParseAsmErrors(t *testing.T) {
	cases := []string{
		"bogus r1, r2",
		"add r1, r2",       // missing operand
		"movi r99, 1",      // bad register
		"ldw r1, r2",       // not a memory operand
		"beq r1, r2, 9z",   // bad target
		"mfcr r1, csr9",    // bad csr
		"movi r1, zzz",     // bad number
		"nop\n.org 0x100",  // .org after code
		"j nowhere",        // undefined label
		"x:\nx:\nnop\nj x", // duplicate label
	}
	for _, src := range cases {
		if _, err := ParseAsm(src, 0); err == nil {
			t.Errorf("source %q must fail", src)
		}
	}
}

// canonInstr keeps only the fields the disassembly of op renders; other
// fields are don't-cares that a textual round trip cannot preserve.
func canonInstr(in Instr) Instr {
	out := Instr{Op: in.Op}
	switch op := in.Op; {
	case op == OpNOP || op == OpRFE || op == OpHALT || op == OpDBG:
	case op.IsJump24():
		out.Off24 = in.Off24
	case op.IsWide():
		out.Rd, out.Imm = in.Rd, in.Imm
	case op == OpJR:
		out.Ra = in.Ra
	case op == OpLOOP:
		out.Ra, out.Imm = in.Ra, in.Imm
	case op == OpMFCR:
		out.Rd, out.Imm = in.Rd, in.Imm
	case op == OpMTCR:
		out.Ra, out.Imm = in.Ra, in.Imm
	case op.IsBranch():
		out.Ra, out.Rb, out.Imm = in.Ra, in.Rb, in.Imm
	case op.IsLoad() || op.IsStore() || op == OpLEA,
		op == OpADDI || op == OpANDI || op == OpORI || op == OpXORI ||
			op == OpSHLI || op == OpSHRI || op == OpSLTI:
		out.Rd, out.Ra, out.Imm = in.Rd, in.Ra, in.Imm
	default: // three-register ALU
		out.Rd, out.Ra, out.Rb = in.Rd, in.Ra, in.Rb
	}
	return out
}

// TestDisasmParseRoundTrip: every instruction the assembler can produce,
// rendered by the disassembler, parses back to the identical encoding.
func TestDisasmParseRoundTrip(t *testing.T) {
	f := func(opRaw, rd, ra, rb uint8, immRaw int32) bool {
		op := Op(opRaw % uint8(NumOps))
		in := Instr{Op: op}
		switch {
		case op.IsJump24():
			in.Off24 = immRaw % (1 << 20)
		case op.IsWide():
			if op == OpMOVI {
				in.Imm = immRaw % (1 << 15)
			} else {
				in.Imm = immRaw & 0xFFFF
			}
			in.Rd = rd % 16
		default:
			in.Rd, in.Ra, in.Rb = rd%16, ra%16, rb%16
			switch op {
			case OpANDI, OpORI, OpXORI, OpSHLI, OpSHRI:
				in.Imm = immRaw & 0xFFF
			case OpMFCR, OpMTCR:
				in.Imm = immRaw & 3
			default:
				in.Imm = immRaw % (1 << 11)
			}
		}
		in = canonInstr(in)
		text := in.String()
		p, err := ParseAsm(text, 0)
		if err != nil {
			t.Logf("%q: %v", text, err)
			return false
		}
		if len(p.Words) != 1 {
			return false
		}
		return Decode(p.Words[0]) == in
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 3000}); err != nil {
		t.Fatal(err)
	}
}

func TestParseAsmCommentStyles(t *testing.T) {
	src := strings.Join([]string{
		"nop ; semicolon",
		"nop # hash",
		"nop // slashes",
	}, "\n")
	p, err := ParseAsm(src, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(p.Words) != 3 {
		t.Errorf("words = %d", len(p.Words))
	}
}
