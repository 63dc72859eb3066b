// Package isa defines the 32-bit instruction set executed by the TriCore-like
// CPU model in internal/tricore and by the PCP model in internal/pcp.
//
// The instruction set is not binary-compatible with Infineon TriCore — the
// paper's methodology never depends on TriCore encodings, only on the
// *microarchitectural structure* of the core (three parallel pipelines:
// integer, load/store and loop, giving up to three instructions per cycle).
// The ISA is therefore a compact fixed-width 32-bit RISC set whose
// instructions are classified into the same three pipe classes.
//
// Encoding (fixed 32-bit words):
//
//	[31:24] opcode
//	[23:20] rd
//	[19:16] ra
//	[15:12] rb
//	[11:0]  imm12  (signed or unsigned per opcode)
//
// Wide-immediate forms (MOVI, MOVH, ORIL) use [15:0] as imm16; long-jump
// forms (J, CALL) use [23:0] as a signed word offset. One table, opTable,
// gives each opcode its operand form and immediate signedness; the
// encoder, decoder, range check, disassembler and both assemblers read it.
package isa

import "fmt"

// NumRegs is the number of general-purpose registers.
const NumRegs = 16

// Register conventions used by the assembler and the workload generator.
const (
	RegZeroConv = 0  // by convention holds 0 in generated code (not hardwired)
	RegLink     = 14 // CALL stores the return address here
	RegSP       = 15 // stack pointer by convention
)

// Op is an opcode.
type Op uint8

// Opcodes. The pipe class of each opcode is given by Pipe().
const (
	OpNOP Op = iota

	// Immediate moves (integer pipe).
	OpMOVI // rd = signext(imm16)
	OpMOVH // rd = imm16 << 16
	OpORIL // rd = rd | zeroext(imm16)

	// Register ALU (integer pipe).
	OpADD  // rd = ra + rb
	OpSUB  // rd = ra - rb
	OpAND  // rd = ra & rb
	OpOR   // rd = ra | rb
	OpXOR  // rd = ra ^ rb
	OpSHL  // rd = ra << (rb & 31)
	OpSHR  // rd = ra >> (rb & 31) logical
	OpSRA  // rd = ra >> (rb & 31) arithmetic
	OpMUL  // rd = ra * rb (2-cycle result latency)
	OpMAC  // rd = rd + ra*rb (2-cycle result latency)
	OpSLT  // rd = (int32(ra) < int32(rb)) ? 1 : 0
	OpSLTU // rd = (ra < rb) ? 1 : 0

	// Immediate ALU (integer pipe). imm12 signed unless noted.
	OpADDI // rd = ra + imm
	OpANDI // rd = ra & zeroext(imm)
	OpORI  // rd = ra | zeroext(imm)
	OpXORI // rd = ra ^ zeroext(imm)
	OpSHLI // rd = ra << imm[4:0]
	OpSHRI // rd = ra >> imm[4:0] logical
	OpSLTI // rd = (int32(ra) < imm) ? 1 : 0

	// Loads/stores (load/store pipe). Effective address = ra + signext(imm12).
	OpLDW // rd = mem32[ea]
	OpLDB // rd = zeroext(mem8[ea])
	OpSTW // mem32[ea] = rd
	OpSTB // mem8[ea] = rd[7:0]
	OpLEA // rd = ea (address arithmetic, LS pipe)

	// Control flow (integer pipe except LOOP).
	OpBEQ  // if ra == rb: pc += signext(imm12) words
	OpBNE  // if ra != rb
	OpBLT  // if int32(ra) < int32(rb)
	OpBGE  // if int32(ra) >= int32(rb)
	OpBLTU // if ra < rb (unsigned)
	OpBGEU // if ra >= rb (unsigned)
	OpJ    // pc += signext(off24) words
	OpCALL // R14 = pc+4; pc += signext(off24) words
	OpJR   // pc = ra

	// Hardware loop (loop pipe): if --ra != 0: pc += signext(imm12) words.
	// Executes with zero overhead in the loop pipeline once primed,
	// mirroring TriCore's loop pipe.
	OpLOOP

	// System (integer pipe).
	OpMFCR // rd = csr[imm12]
	OpMTCR // csr[imm12] = ra
	OpRFE  // return from exception/interrupt
	OpHALT // stop the core (end of program)
	OpDBG  // no-op that raises a debug event observable by MCDS comparators

	opMax
)

// NumOps is the number of defined opcodes.
const NumOps = int(opMax)

// Pipe identifies the execution pipeline an instruction issues to. TriCore
// 1.3 issues at most one instruction per pipe per cycle, so the theoretical
// peak is 3 instructions/cycle — exactly the "up to 3 within a clock cycle"
// figure the paper quotes for the IPC counter.
type Pipe uint8

// Pipe classes.
const (
	PipeInt  Pipe = iota // integer pipeline
	PipeLS               // load/store pipeline
	PipeLoop             // loop pipeline
)

// String names the pipe class.
func (p Pipe) String() string {
	switch p {
	case PipeInt:
		return "IP"
	case PipeLS:
		return "LS"
	case PipeLoop:
		return "LP"
	}
	return "??"
}

// CSR numbers for OpMFCR/OpMTCR.
const (
	CsrICR    = 0 // interrupt control: bit0 = global enable, bits [15:8] = current prio
	CsrCCNT   = 1 // free-running cycle counter (read-only)
	CsrCoreID = 2 // core identity (read-only)
	CsrSYS    = 3 // scratch register readable by the testbench
	NumCSRs   = 4
)

type opInfo struct {
	name  string
	pipe  Pipe
	flags uint8
	form  form
}

const (
	flagBranch = 1 << iota // conditional or unconditional change of flow
	flagLoad
	flagStore
	flagZext // the immediate is zero-extended (signed otherwise)
)

// form is an opcode's operand form. It fixes the encoding (an off24 word
// offset for jumps, rd+imm16 for the wide forms, rd/ra/rb+imm12 for the
// rest) and the assembler syntax, which formOperands lists slot by slot.
type form uint8

const (
	formNone   form = iota // mnemonic only
	formImm16              // rd, imm16
	formRRR                // rd, ra, rb
	formRRI                // rd, ra, imm12
	formLoad               // rd, [ra+imm12]
	formStore              // [ra+imm12], rd
	formBranch             // ra, rb, off12
	formLoop               // ra, off12
	formJump               // off24
	formJR                 // ra
	formMFCR               // rd, csrN
	formMTCR               // csrN, ra
)

// operand is one slot of an instruction's assembler syntax and the Instr
// field it reads and writes.
type operand uint8

const (
	argRd     operand = iota // rN in Rd
	argRa                    // rN in Ra
	argRb                    // rN in Rb
	argImm                   // number in Imm
	argMem                   // [rN+off] in Ra and Imm
	argTarget                // label or signed word offset in Instr.target
	argCSR                   // csrN in Imm
)

// formOperands lists each form's operands in the order the disassembler
// prints them and the text assembler reads them.
var formOperands = [...][]operand{
	formNone:   nil,
	formImm16:  {argRd, argImm},
	formRRR:    {argRd, argRa, argRb},
	formRRI:    {argRd, argRa, argImm},
	formLoad:   {argRd, argMem},
	formStore:  {argMem, argRd},
	formBranch: {argRa, argRb, argTarget},
	formLoop:   {argRa, argTarget},
	formJump:   {argTarget},
	formJR:     {argRa},
	formMFCR:   {argRd, argCSR},
	formMTCR:   {argCSR, argRa},
}

// immBits is the width of the form's immediate field: Off24 for jumps,
// Imm otherwise.
func (f form) immBits() uint {
	switch f {
	case formJump:
		return 24
	case formImm16:
		return 16
	}
	return 12
}

var opTable = [NumOps]opInfo{
	OpNOP:  {"nop", PipeInt, 0, formNone},
	OpMOVI: {"movi", PipeInt, 0, formImm16},
	OpMOVH: {"movh", PipeInt, flagZext, formImm16},
	OpORIL: {"oril", PipeInt, flagZext, formImm16},
	OpADD:  {"add", PipeInt, 0, formRRR},
	OpSUB:  {"sub", PipeInt, 0, formRRR},
	OpAND:  {"and", PipeInt, 0, formRRR},
	OpOR:   {"or", PipeInt, 0, formRRR},
	OpXOR:  {"xor", PipeInt, 0, formRRR},
	OpSHL:  {"shl", PipeInt, 0, formRRR},
	OpSHR:  {"shr", PipeInt, 0, formRRR},
	OpSRA:  {"sra", PipeInt, 0, formRRR},
	OpMUL:  {"mul", PipeInt, 0, formRRR},
	OpMAC:  {"mac", PipeInt, 0, formRRR},
	OpSLT:  {"slt", PipeInt, 0, formRRR},
	OpSLTU: {"sltu", PipeInt, 0, formRRR},
	OpADDI: {"addi", PipeInt, 0, formRRI},
	OpANDI: {"andi", PipeInt, flagZext, formRRI},
	OpORI:  {"ori", PipeInt, flagZext, formRRI},
	OpXORI: {"xori", PipeInt, flagZext, formRRI},
	OpSHLI: {"shli", PipeInt, flagZext, formRRI},
	OpSHRI: {"shri", PipeInt, flagZext, formRRI},
	OpSLTI: {"slti", PipeInt, 0, formRRI},
	OpLDW:  {"ldw", PipeLS, flagLoad, formLoad},
	OpLDB:  {"ldb", PipeLS, flagLoad, formLoad},
	OpSTW:  {"stw", PipeLS, flagStore, formStore},
	OpSTB:  {"stb", PipeLS, flagStore, formStore},
	OpLEA:  {"lea", PipeLS, 0, formLoad},
	OpBEQ:  {"beq", PipeInt, flagBranch, formBranch},
	OpBNE:  {"bne", PipeInt, flagBranch, formBranch},
	OpBLT:  {"blt", PipeInt, flagBranch, formBranch},
	OpBGE:  {"bge", PipeInt, flagBranch, formBranch},
	OpBLTU: {"bltu", PipeInt, flagBranch, formBranch},
	OpBGEU: {"bgeu", PipeInt, flagBranch, formBranch},
	OpJ:    {"j", PipeInt, flagBranch, formJump},
	OpCALL: {"call", PipeInt, flagBranch, formJump},
	OpJR:   {"jr", PipeInt, flagBranch, formJR},
	OpLOOP: {"loop", PipeLoop, flagBranch, formLoop},
	OpMFCR: {"mfcr", PipeInt, flagZext, formMFCR},
	OpMTCR: {"mtcr", PipeInt, flagZext, formMTCR},
	OpRFE:  {"rfe", PipeInt, flagBranch, formNone},
	OpHALT: {"halt", PipeInt, 0, formNone},
	OpDBG:  {"dbg", PipeInt, 0, formNone},
}

// String names the opcode in assembler mnemonics.
func (o Op) String() string {
	if int(o) < NumOps {
		return opTable[o].name
	}
	return fmt.Sprintf("op%d", uint8(o))
}

// Valid reports whether o is a defined opcode.
func (o Op) Valid() bool { return int(o) < NumOps }

// Pipe returns the execution pipe class of the opcode.
func (o Op) Pipe() Pipe {
	if !o.Valid() {
		return PipeInt
	}
	return opTable[o].pipe
}

// IsBranch reports whether the opcode may change control flow.
func (o Op) IsBranch() bool { return o.Valid() && opTable[o].flags&flagBranch != 0 }

// IsLoad reports whether the opcode reads data memory.
func (o Op) IsLoad() bool { return o.Valid() && opTable[o].flags&flagLoad != 0 }

// IsStore reports whether the opcode writes data memory.
func (o Op) IsStore() bool { return o.Valid() && opTable[o].flags&flagStore != 0 }
