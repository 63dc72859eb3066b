// corpusgen regenerates the checked-in fuzz seed corpora under
// internal/isa/testdata/fuzz/ and internal/tricore/testdata/fuzz/ from the
// real instruction encoder, so the seeds stay valid if encodings change.
// Run from the repo root: go run ./corpusgen
package main

import (
	"encoding/binary"
	"fmt"
	"os"
	"path/filepath"

	"repro/internal/isa"
)

func write(dir, name string, lines ...string) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		panic(err)
	}
	body := "go test fuzz v1\n"
	for _, l := range lines {
		body += l + "\n"
	}
	if err := os.WriteFile(filepath.Join(dir, name), []byte(body), 0o644); err != nil {
		panic(err)
	}
}

func words(ins ...isa.Instr) []byte {
	b := make([]byte, 4*len(ins))
	for i, in := range ins {
		binary.LittleEndian.PutUint32(b[4*i:], in.Encode())
	}
	return b
}

func main() {
	// --- internal/isa FuzzDecodeInstr: one representative word per op
	// class plus near-miss garbage (valid tag, junk fields).
	instrDir := "internal/isa/testdata/fuzz/FuzzDecodeInstr"
	reps := []isa.Instr{
		{Op: isa.OpMOVI, Rd: 1, Imm: -10},
		{Op: isa.OpMOVH, Rd: 2, Imm: 0x8000},
		{Op: isa.OpORIL, Rd: 2, Imm: 0xBEEF},
		{Op: isa.OpADD, Rd: 3, Ra: 1, Rb: 2},
		{Op: isa.OpMUL, Rd: 4, Ra: 3, Rb: 3},
		{Op: isa.OpMAC, Rd: 5, Ra: 4, Rb: 1},
		{Op: isa.OpSRA, Rd: 6, Ra: 5, Rb: 2},
		{Op: isa.OpADDI, Rd: 7, Ra: 6, Imm: 2047},
		{Op: isa.OpSHLI, Rd: 8, Ra: 7, Imm: 31},
		{Op: isa.OpLDW, Rd: 9, Ra: 1, Imm: 8},
		{Op: isa.OpLDB, Rd: 10, Ra: 1, Imm: -1},
		{Op: isa.OpSTW, Rd: 9, Ra: 1, Imm: 8},
		{Op: isa.OpSTB, Rd: 10, Ra: 1, Imm: 3},
		{Op: isa.OpLEA, Rd: 11, Ra: 1, Imm: 64},
		{Op: isa.OpBEQ, Ra: 1, Rb: 2, Imm: -3},
		{Op: isa.OpBLTU, Ra: 3, Rb: 4, Imm: 100},
		{Op: isa.OpJ, Off24: -(1 << 20)},
		{Op: isa.OpCALL, Off24: 1 << 20},
		{Op: isa.OpJR, Ra: 14},
		{Op: isa.OpLOOP, Ra: 9, Imm: -5},
		{Op: isa.OpMFCR, Rd: 1, Imm: 3},
		{Op: isa.OpMTCR, Ra: 1, Imm: 3},
		{Op: isa.OpRFE},
		{Op: isa.OpHALT},
		{Op: isa.OpDBG},
	}
	for i, in := range reps {
		write(instrDir, fmt.Sprintf("op-%02d-%s", i, in.Op),
			fmt.Sprintf("uint32(%d)", in.Encode()))
	}
	// Near-misses: the highest valid op tag with all payload bits set, and
	// the first invalid tag.
	halt := isa.Instr{Op: isa.OpHALT}.Encode()
	write(instrDir, "junk-payload", fmt.Sprintf("uint32(%d)", halt|0x00FFFFFF))
	write(instrDir, "bad-opcode", fmt.Sprintf("uint32(%d)",
		uint32(isa.NumOps)<<24|0x123456))
	// Illegal instructions with a defined opcode: mfcr and mtcr of an
	// undefined CSR (Instr.Valid), which the core must fault on, not run.
	badMfcr := uint32(isa.OpMFCR)<<24 | 1<<20 | 9 // mfcr r1, csr9
	badMtcr := uint32(isa.OpMTCR)<<24 | 1<<16 | isa.NumCSRs
	write(instrDir, "bad-csr-mfcr", fmt.Sprintf("uint32(%d)", badMfcr))
	write(instrDir, "bad-csr-mtcr", fmt.Sprintf("uint32(%d)", badMtcr))

	// --- internal/isa FuzzDecoderBlock: decoded-block shapes that hit the
	// builder's edges — same-pipe and load-use pairs, every terminator
	// class, the length cap, and illegal words in the stream.
	blockDir := "internal/isa/testdata/fuzz/FuzzDecoderBlock"
	write(blockDir, "fuse-shapes", fmt.Sprintf("[]byte(%q)", words(
		isa.Instr{Op: isa.OpLDW, Rd: 4, Ra: 1, Imm: 8},
		isa.Instr{Op: isa.OpADDI, Rd: 5, Ra: 4, Imm: 1}, // load-use pair
		isa.Instr{Op: isa.OpADD, Rd: 6, Ra: 5, Rb: 5},
		isa.Instr{Op: isa.OpSUB, Rd: 7, Ra: 6, Rb: 5}, // same-pipe pair
		isa.Instr{Op: isa.OpSTW, Rd: 7, Ra: 1, Imm: 12},
		isa.Instr{Op: isa.OpLOOP, Ra: 9, Imm: -5}, // st+loop pair
	)))
	write(blockDir, "call-terminated", fmt.Sprintf("[]byte(%q)", words(
		isa.Instr{Op: isa.OpMOVI, Rd: 1, Imm: 7},
		isa.Instr{Op: isa.OpCALL, Off24: 12},
		isa.Instr{Op: isa.OpJR, Ra: 14},
	)))
	write(blockDir, "branch-terminated", fmt.Sprintf("[]byte(%q)", words(
		isa.Instr{Op: isa.OpSLT, Rd: 3, Ra: 1, Rb: 2},
		isa.Instr{Op: isa.OpBNE, Ra: 3, Rb: 0, Imm: -2},
		isa.Instr{Op: isa.OpHALT},
	)))
	write(blockDir, "invalid-midstream", fmt.Sprintf("[]byte(%q)", append(words(
		isa.Instr{Op: isa.OpADDI, Rd: 1, Ra: 1, Imm: 1}),
		0xFF, 0xFF, 0xFF, 0xFF, 0x00, 0x00, 0x00, 0x00)))
	for name, w := range map[string]uint32{"bad-csr-mfcr": badMfcr, "bad-csr-mtcr": badMtcr} {
		write(blockDir, name, fmt.Sprintf("[]byte(%q)", binary.LittleEndian.AppendUint32(words(
			isa.Instr{Op: isa.OpMFCR, Rd: 2, Imm: isa.NumCSRs - 1}), w)))
	}
	longRun := make([]isa.Instr, isa.MaxBlockInstrs+8)
	for i := range longRun {
		longRun[i] = isa.Instr{Op: isa.OpXORI, Rd: uint8(i % 15), Ra: uint8(i % 7), Imm: int32(i)}
	}
	write(blockDir, "length-cap", fmt.Sprintf("[]byte(%q)", words(longRun...)))
	write(blockDir, "truncated-tail", fmt.Sprintf("[]byte(%q)",
		append(words(isa.Instr{Op: isa.OpORI, Rd: 2, Ra: 2, Imm: 255}), 0x9A, 0x02)))

	// --- internal/isa FuzzParseAsm: the documented surface plus the error
	// paths (bad register, unknown mnemonic, duplicate label, overflow).
	asmDir := "internal/isa/testdata/fuzz/FuzzParseAsm"
	write(asmDir, "loop-kernel", fmt.Sprintf("string(%q)",
		".org 0x80000000\nmovh r1, 0xD000\nmovi r3, 100\nbody:\n  ldw r2, [r1+0]\n  addi r2, r2, 1\n  stw [r1+0], r2\n  loop r3, body\nhalt\n"))
	write(asmDir, "directives", fmt.Sprintf("string(%q)",
		".org 0xA0000000\n.word 0xDEADBEEF\n.word 0\nmfcr r1, csr3\nmtcr csr3, r1\nrfe\n"))
	write(asmDir, "branches", fmt.Sprintf("string(%q)",
		"top: beq r1, r2, +3\nbne r1, r2, top\nbltu r3, r4, -2\nj top\ncall top\njr r14\n"))
	write(asmDir, "bad-register", fmt.Sprintf("string(%q)", "movi r16, 1\n"))
	write(asmDir, "unknown-mnemonic", fmt.Sprintf("string(%q)", "frobnicate r1, r2\n"))
	write(asmDir, "dup-label", fmt.Sprintf("string(%q)", "x: nop\nx: nop\n"))
	write(asmDir, "comments-unicode", fmt.Sprintf("string(%q)",
		"; Grüße # éé\nnop ; trailing\n"))

	// --- internal/tricore FuzzBlockDecodeDifferential: (seed, sel) pairs
	// covering every rig variant and both code placements (bit 7 selects
	// the program scratchpad).
	diffDir := "internal/tricore/testdata/fuzz/FuzzBlockDecodeDifferential"
	for i, sel := range []byte{0, 1, 2, 3, 4, 0x80, 0x82, 0x84} {
		write(diffDir, fmt.Sprintf("variant-%02x", sel),
			fmt.Sprintf("uint64(%d)", 100+i),
			fmt.Sprintf("byte(%q)", sel))
	}
}
