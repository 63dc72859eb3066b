package isa

import (
	"fmt"
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
		"add r1, r2",         // missing operand
		"movi r99, 1",        // bad register
		"ldw r1, r2",         // not a memory operand
		"beq r1, r2, 9z",     // bad target
		"mfcr r1, csr9",      // bad csr
		"movi r1, zzz",       // bad number
		"nop\n.org 0x100",    // .org after code
		"j nowhere",          // undefined label
		"x:\nx:\nnop\nj x",   // duplicate label
		"x:\n.org 0x100",     // .org after a label
		"halt r1",            // operand on a bare mnemonic
		"add r1, r2, r3, r4", // extra operand
		"movi r1, 0x80000000",
		".word 0x100000000",
		// Immediates past their opcode's field.
		"ldw r1, [r2+5000]",
		"stw [r1-3000], r2",
		"beq r1, r2, 5000",
		"j 99999999",
		"movh r1, 0x12345",
		"andi r1, r2, -1",
	}
	for _, src := range cases {
		_, err := ParseAsm(src, 0)
		if err == nil {
			t.Errorf("source %q must fail", src)
		} else if !strings.HasPrefix(err.Error(), "line ") {
			t.Errorf("source %q: error %q names no line", src, err)
		}
	}

	// Label errors surface only once every line is read; each still
	// names its own line, and none hides another.
	src := "y: nop\ny: nop\nbeq r1, r2, far\n" + strings.Repeat("nop\n", 2048) + "far: halt\n"
	_, err := ParseAsm(src, 0)
	for _, want := range []string{"line 2: duplicate label \"y\"", "line 3: branch to \"far\": beq offset 2049 out of range"} {
		if err == nil || !strings.Contains(err.Error(), want) {
			t.Errorf("duplicate label + far branch: error %v, want it to contain %q", err, want)
		}
	}
}

// rendered keeps only the fields in's disassembly prints; a textual round
// trip cannot carry the others.
func rendered(in Instr) Instr {
	out := Instr{Op: in.Op}
	for _, arg := range formOperands[opTable[in.Op].form] {
		switch arg {
		case argRd:
			out.Rd = in.Rd
		case argRa:
			out.Ra = in.Ra
		case argRb:
			out.Rb = in.Rb
		case argMem:
			out.Ra, out.Imm = in.Ra, in.Imm
		case argImm, argCSR:
			out.Imm = in.Imm
		case argTarget:
			*out.target() = *in.target()
		}
	}
	return out
}

// TestDisasmParseRoundTrip: every instruction the assembler can produce,
// rendered by the disassembler, parses back to the identical encoding.
func TestDisasmParseRoundTrip(t *testing.T) {
	f := func(opRaw, rd, ra, rb uint8, immRaw int32) bool {
		in := rendered(encodable(Op(opRaw%uint8(NumOps)), rd, ra, rb, immRaw))
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

// TestDisasmWordsRoundTrip: the disassembly of any 32-bit word parses
// back. An illegal word (undefined opcode, or mfcr/mtcr of an undefined
// CSR) comes back as the identical word; a legal one as the identical
// instruction.
func TestDisasmWordsRoundTrip(t *testing.T) {
	for _, c := range []struct {
		w    uint32
		text string
	}{
		{0x26100009, ".word 0x26100009"},             // mfcr r1, csr9
		{uint32(OpMTCR)<<24 | 7, ".word 0x27000007"}, // mtcr csr7, r0
		{0xFC000000, ".word 0xfc000000"},             // undefined opcode
		{uint32(NumOps) << 24, fmt.Sprintf(".word 0x%08x", uint32(NumOps)<<24)},
	} {
		if got := Disasm(c.w); got != c.text {
			t.Errorf("Disasm(%#08x) = %q, want %q", c.w, got, c.text)
		}
	}
	f := func(w uint32) bool {
		text := Disasm(w)
		p, err := ParseAsm(text, 0)
		if err != nil {
			t.Logf("%#08x %q: %v", w, text, err)
			return false
		}
		if len(p.Words) != 1 {
			return false
		}
		if in := Decode(w); in.Valid() {
			return Decode(p.Words[0]) == rendered(in)
		}
		return p.Words[0] == w
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 5000}); err != nil {
		t.Fatal(err)
	}
}

// TestImmediateRangeEnds: for every opcode with an immediate operand, both
// ends of its range assemble, through the builder and the text assembler,
// and round-trip through Encode and Decode; one past either end is an
// assembler error, never a panic.
func TestImmediateRangeEnds(t *testing.T) {
	for op := Op(0); op.Valid(); op++ {
		f := opTable[op].form
		if f == formNone || f == formRRR || f == formJR {
			continue // no immediate operand
		}
		lo, hi := immRange(op)
		for _, c := range []struct {
			v  int32
			ok bool
		}{{lo, true}, {hi, true}, {lo - 1, false}, {hi + 1, false}} {
			in := rendered(Instr{Op: op, Rd: 1, Ra: 2, Rb: 3, Imm: c.v, Off24: c.v})
			a := NewAsm(0)
			a.emit(in)
			p, err := a.Assemble()
			switch {
			case c.ok && err != nil:
				t.Errorf("%v: builder rejects %d: %v", op, c.v, err)
			case c.ok && Decode(p.Words[0]) != in:
				t.Errorf("%v: %d decodes to %+v", op, c.v, Decode(p.Words[0]))
			case !c.ok && err == nil:
				t.Errorf("%v: builder accepts %d", op, c.v)
			}
			text := in.String()
			p, err = ParseAsm(text, 0)
			switch {
			case c.ok && err != nil:
				t.Errorf("%q: %v", text, err)
			case c.ok && Decode(p.Words[0]) != in:
				t.Errorf("%q decodes to %+v", text, Decode(p.Words[0]))
			case !c.ok && (err == nil || !strings.HasPrefix(err.Error(), "line 1: ")):
				t.Errorf("%q: want a line 1 error, got %v", text, err)
			}
		}
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
