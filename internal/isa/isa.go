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
// forms (J, CALL) use [23:0] as a signed word offset.
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
}

const (
	flagBranch = 1 << iota // conditional or unconditional change of flow
	flagLoad
	flagStore
	flagWide // imm16 form
	flagJump // off24 form
)

var opTable = [NumOps]opInfo{
	OpNOP:  {"nop", PipeInt, 0},
	OpMOVI: {"movi", PipeInt, flagWide},
	OpMOVH: {"movh", PipeInt, flagWide},
	OpORIL: {"oril", PipeInt, flagWide},
	OpADD:  {"add", PipeInt, 0},
	OpSUB:  {"sub", PipeInt, 0},
	OpAND:  {"and", PipeInt, 0},
	OpOR:   {"or", PipeInt, 0},
	OpXOR:  {"xor", PipeInt, 0},
	OpSHL:  {"shl", PipeInt, 0},
	OpSHR:  {"shr", PipeInt, 0},
	OpSRA:  {"sra", PipeInt, 0},
	OpMUL:  {"mul", PipeInt, 0},
	OpMAC:  {"mac", PipeInt, 0},
	OpSLT:  {"slt", PipeInt, 0},
	OpSLTU: {"sltu", PipeInt, 0},
	OpADDI: {"addi", PipeInt, 0},
	OpANDI: {"andi", PipeInt, 0},
	OpORI:  {"ori", PipeInt, 0},
	OpXORI: {"xori", PipeInt, 0},
	OpSHLI: {"shli", PipeInt, 0},
	OpSHRI: {"shri", PipeInt, 0},
	OpSLTI: {"slti", PipeInt, 0},
	OpLDW:  {"ldw", PipeLS, flagLoad},
	OpLDB:  {"ldb", PipeLS, flagLoad},
	OpSTW:  {"stw", PipeLS, flagStore},
	OpSTB:  {"stb", PipeLS, flagStore},
	OpLEA:  {"lea", PipeLS, 0},
	OpBEQ:  {"beq", PipeInt, flagBranch},
	OpBNE:  {"bne", PipeInt, flagBranch},
	OpBLT:  {"blt", PipeInt, flagBranch},
	OpBGE:  {"bge", PipeInt, flagBranch},
	OpBLTU: {"bltu", PipeInt, flagBranch},
	OpBGEU: {"bgeu", PipeInt, flagBranch},
	OpJ:    {"j", PipeInt, flagBranch | flagJump},
	OpCALL: {"call", PipeInt, flagBranch | flagJump},
	OpJR:   {"jr", PipeInt, flagBranch},
	OpLOOP: {"loop", PipeLoop, flagBranch},
	OpMFCR: {"mfcr", PipeInt, 0},
	OpMTCR: {"mtcr", PipeInt, 0},
	OpRFE:  {"rfe", PipeInt, flagBranch},
	OpHALT: {"halt", PipeInt, 0},
	OpDBG:  {"dbg", PipeInt, 0},
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

// IsWide reports whether the opcode uses the imm16 encoding.
func (o Op) IsWide() bool { return o.Valid() && opTable[o].flags&flagWide != 0 }

// IsJump24 reports whether the opcode uses the off24 encoding.
func (o Op) IsJump24() bool { return o.Valid() && opTable[o].flags&flagJump != 0 }
