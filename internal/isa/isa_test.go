package isa

import (
	"testing"
	"testing/quick"
)

func TestEncodeDecodeRoundTrip(t *testing.T) {
	cases := []Instr{
		{Op: OpNOP},
		{Op: OpMOVI, Rd: 3, Imm: -1234},
		{Op: OpMOVH, Rd: 15, Imm: 0xABCD},
		{Op: OpORIL, Rd: 1, Imm: 0xFFFF},
		{Op: OpADD, Rd: 1, Ra: 2, Rb: 3},
		{Op: OpMAC, Rd: 7, Ra: 8, Rb: 9},
		{Op: OpADDI, Rd: 4, Ra: 5, Imm: -2048},
		{Op: OpANDI, Rd: 4, Ra: 5, Imm: 4095},
		{Op: OpLDW, Rd: 2, Ra: 15, Imm: -4},
		{Op: OpSTB, Rd: 9, Ra: 1, Imm: 255},
		{Op: OpBEQ, Ra: 1, Rb: 2, Imm: -100},
		{Op: OpLOOP, Ra: 6, Imm: -8},
		{Op: OpJ, Off24: -(1 << 23)},
		{Op: OpCALL, Off24: 1<<23 - 1},
		{Op: OpJR, Ra: 14},
		{Op: OpMFCR, Rd: 1, Imm: CsrICR},
		{Op: OpMTCR, Ra: 2, Imm: CsrICR},
		{Op: OpRFE},
		{Op: OpHALT},
	}
	for _, c := range cases {
		got := Decode(c.Encode())
		if got != c {
			t.Errorf("round trip %v: got %+v want %+v", c.Op, got, c)
		}
	}
}

// immRange is the range of op's immediate field (Off24 for jumps), written
// out here independently of opTable.
func immRange(op Op) (lo, hi int32) {
	switch op {
	case OpJ, OpCALL:
		return -(1 << 23), 1<<23 - 1
	case OpMOVI:
		return -(1 << 15), 1<<15 - 1
	case OpMOVH, OpORIL:
		return 0, 1<<16 - 1
	case OpANDI, OpORI, OpXORI, OpSHLI, OpSHRI:
		return 0, 1<<12 - 1
	case OpMFCR, OpMTCR:
		return 0, NumCSRs - 1 // defined CSRs only
	}
	return -(1 << 11), 1<<11 - 1
}

// encodable builds an Instr of op from raw field values: registers only in
// the fields op's layout encodes, the immediate folded into its range.
func encodable(op Op, rd, ra, rb uint8, raw int32) Instr {
	lo, hi := immRange(op)
	v := lo + int32(uint32(raw)%uint32(hi-lo+1))
	switch op {
	case OpJ, OpCALL:
		return Instr{Op: op, Off24: v}
	case OpMOVI, OpMOVH, OpORIL:
		return Instr{Op: op, Rd: rd % NumRegs, Imm: v}
	}
	return Instr{Op: op, Rd: rd % NumRegs, Ra: ra % NumRegs, Rb: rb % NumRegs, Imm: v}
}

func TestEncodeDecodeProperty(t *testing.T) {
	// Every instruction the assembler can legally construct must round-trip.
	f := func(opRaw, rd, ra, rb uint8, immRaw int32) bool {
		in := encodable(Op(opRaw%uint8(NumOps)), rd, ra, rb, immRaw)
		return Decode(in.Encode()) == in
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 5000}); err != nil {
		t.Fatal(err)
	}
}

func panics(f func()) (did bool) {
	defer func() { did = recover() != nil }()
	f()
	return false
}

// TestCheckMatchesEncoding: an Instr the range check accepts is valid and
// round-trips exactly, and Encode panics on one it rejects, so no field is
// ever truncated or dropped in silence and no illegal instruction is
// assembled.
func TestCheckMatchesEncoding(t *testing.T) {
	accepted := 0
	agrees := func(in Instr) bool {
		if in.check() == nil {
			accepted++
			return in.Valid() && Decode(in.Encode()) == in
		}
		return panics(func() { in.Encode() })
	}
	f := func(opRaw, rd, ra, rb uint8, imm, off int16) bool {
		return agrees(Instr{Op: Op(opRaw % uint8(NumOps+1)), Rd: rd % 20, Ra: ra % 20, Rb: rb % 20,
			Imm: int32(imm) % 5000, Off24: int32(off) % 3})
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20000}); err != nil {
		t.Fatal(err)
	}
	if accepted < 100 {
		t.Errorf("only %d of 20000 random instructions passed the check", accepted)
	}
	// The CSR forms: the last defined CSR assembles, the next is illegal.
	for _, in := range []Instr{
		{Op: OpMFCR, Rd: 1, Imm: NumCSRs - 1},
		{Op: OpMTCR, Ra: 1, Imm: NumCSRs - 1},
	} {
		if in.check() != nil || !agrees(in) {
			t.Errorf("%+v: check %v, want accepted and round-tripped", in, in.check())
		}
		in.Imm = NumCSRs
		if in.check() == nil || in.Valid() || !agrees(in) {
			t.Errorf("%+v: check %v, Valid %v; want rejected and invalid", in, in.check(), in.Valid())
		}
	}
}

func TestPipeClasses(t *testing.T) {
	if OpADD.Pipe() != PipeInt {
		t.Errorf("ADD pipe = %v", OpADD.Pipe())
	}
	if OpLDW.Pipe() != PipeLS || OpSTW.Pipe() != PipeLS || OpLEA.Pipe() != PipeLS {
		t.Error("load/store/lea must be LS pipe")
	}
	if OpLOOP.Pipe() != PipeLoop {
		t.Error("LOOP must be loop pipe")
	}
	// The three-pipe split is what bounds IPC at 3, the figure the paper
	// quotes; make sure each class is represented.
	seen := map[Pipe]bool{}
	for op := Op(0); op.Valid(); op++ {
		seen[op.Pipe()] = true
	}
	if len(seen) != 3 {
		t.Errorf("expected 3 pipe classes, saw %d", len(seen))
	}
}

func TestAsmLabelsAndBranches(t *testing.T) {
	a := NewAsm(0x8000_0000)
	a.Label("start")
	a.Movi(1, 10)
	a.Label("loop")
	a.Addi(1, 1, -1)
	a.Bne(1, 0, "loop")
	a.Halt()
	p, err := a.Assemble()
	if err != nil {
		t.Fatal(err)
	}
	if p.Size() != 16 {
		t.Fatalf("size = %d, want 16", p.Size())
	}
	br := Decode(p.Words[2])
	if br.Op != OpBNE || br.Imm != -1 {
		t.Errorf("branch = %+v, want BNE imm=-1", br)
	}
	if got := p.SymbolAt(0x8000_0004); got != "loop" {
		t.Errorf("SymbolAt = %q, want loop", got)
	}
	if got := p.SymbolAt(0x8000_0000); got != "start" {
		t.Errorf("SymbolAt = %q, want start", got)
	}
}

func TestAsmForwardReference(t *testing.T) {
	a := NewAsm(0)
	a.J("end")
	a.Nop()
	a.Nop()
	a.Label("end")
	a.Halt()
	p, err := a.Assemble()
	if err != nil {
		t.Fatal(err)
	}
	j := Decode(p.Words[0])
	if j.Off24 != 3 {
		t.Errorf("jump offset = %d, want 3", j.Off24)
	}
}

func TestAsmErrors(t *testing.T) {
	a := NewAsm(0)
	a.Bne(1, 0, "nowhere")
	if _, err := a.Assemble(); err == nil {
		t.Error("undefined label must fail")
	}

	a = NewAsm(0)
	a.Label("x")
	a.Label("x")
	if _, err := a.Assemble(); err == nil {
		t.Error("duplicate label must fail")
	}

	a = NewAsm(0)
	a.Movi(1, 1<<20)
	if _, err := a.Assemble(); err == nil {
		t.Error("oversized movi must fail")
	}

	a = NewAsm(0)
	a.Mfcr(1, 9)
	if _, err := a.Assemble(); err == nil {
		t.Error("mfcr of an undefined csr must fail")
	}

	// A label 2049 words ahead is one word past a branch's reach.
	a = NewAsm(0)
	a.Beq(1, 2, "far")
	for i := 0; i < 2048; i++ {
		a.Nop()
	}
	a.Label("far")
	if _, err := a.Assemble(); err == nil {
		t.Error("branch past the imm12 range must fail")
	}
}

func TestMovwBuildsConstants(t *testing.T) {
	for _, v := range []uint32{0, 1, 0x7FFF, 0x8000, 0xFFFF_FFFF, 0xD000_0000, 0x1234_5678} {
		a := NewAsm(0)
		a.Movw(1, v)
		a.Halt()
		p, err := a.Assemble()
		if err != nil {
			t.Fatal(err)
		}
		// Interpret the mini program by hand.
		var r1 uint32
		for _, w := range p.Words {
			in := Decode(w)
			switch in.Op {
			case OpMOVI:
				r1 = uint32(in.Imm)
			case OpMOVH:
				r1 = uint32(in.Imm) << 16
			case OpORIL:
				r1 |= uint32(in.Imm)
			}
		}
		if r1 != v {
			t.Errorf("Movw(%#x) produced %#x", v, r1)
		}
	}
}

func TestProgramBytesLittleEndian(t *testing.T) {
	a := NewAsm(0)
	a.Halt()
	p, err := a.Assemble()
	if err != nil {
		t.Fatal(err)
	}
	b := p.Bytes()
	if b[3] != byte(OpHALT) {
		t.Errorf("opcode byte = %#x, want %#x", b[3], byte(OpHALT))
	}
}

func TestInstrStringCoversAllOps(t *testing.T) {
	for op := Op(0); op.Valid(); op++ {
		s := Instr{Op: op, Rd: 1, Ra: 2, Rb: 3, Imm: 4}.String()
		if s == "" {
			t.Errorf("empty disassembly for %v", op)
		}
	}
	if s := Decode(0xFF000000).String(); s == "" {
		t.Error("invalid opcode must still render")
	}
}

func TestAllBuilderMethods(t *testing.T) {
	// Exercise every mnemonic builder; results are checked by decoding.
	a := NewAsm(0)
	a.Add(1, 2, 3).Sub(1, 2, 3).Mul(1, 2, 3).Mac(1, 2, 3)
	a.And(1, 2, 3).Or(1, 2, 3).Xor(1, 2, 3)
	a.Shl(1, 2, 3).Shr(1, 2, 3).Sra(1, 2, 3).Slt(1, 2, 3)
	a.Andi(1, 2, 3).Ori(1, 2, 3).Xori(1, 2, 3)
	a.Shli(1, 2, 3).Shri(1, 2, 3).Slti(1, 2, 3)
	a.Label("t")
	a.Beq(1, 2, "t").Blt(1, 2, "t").Bge(1, 2, "t")
	a.Bltu(1, 2, "t").Bgeu(1, 2, "t")
	a.Call("t").Loop(3, "t")
	a.Dbg()
	p, err := a.Assemble()
	if err != nil {
		t.Fatal(err)
	}
	wantOps := []Op{OpADD, OpSUB, OpMUL, OpMAC, OpAND, OpOR, OpXOR,
		OpSHL, OpSHR, OpSRA, OpSLT, OpANDI, OpORI, OpXORI, OpSHLI, OpSHRI,
		OpSLTI, OpBEQ, OpBLT, OpBGE, OpBLTU, OpBGEU, OpCALL, OpLOOP, OpDBG}
	for i, op := range wantOps {
		if got := Decode(p.Words[i]).Op; got != op {
			t.Errorf("word %d: op %v, want %v", i, got, op)
		}
	}
}

func TestPipeStrings(t *testing.T) {
	if PipeInt.String() != "IP" || PipeLS.String() != "LS" || PipeLoop.String() != "LP" {
		t.Error("pipe names wrong")
	}
	if Pipe(9).String() != "??" {
		t.Error("unknown pipe must render ??")
	}
	if Op(200).String() == "" || Op(200).Pipe() != PipeInt {
		t.Error("invalid op fallbacks")
	}
}
