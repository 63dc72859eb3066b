package isa

import (
	"fmt"
	"strconv"
	"strings"
)

// ParseAsm assembles text assembly into a program. The syntax is exactly
// what Instr.String and the disassembler produce, plus labels, the
// pseudo-ops movw and ret, and directives:
//
//	; comment        # comment
//	start:                     ; label definition
//	    movi r1, 10
//	    movh r2, 0x1234
//	    add  r3, r1, r2
//	    ldw  r4, [r3+8]
//	    stw  [r3+8], r4
//	    beq  r1, r2, start     ; label or numeric word offset (+3 / -3)
//	    loop r5, start
//	    j    start
//	    mfcr r1, csr0
//	    mtcr csr0, r1
//	    movw r6, 0xDEADBEEF    ; movi, or movh + oril
//	    ret                    ; jr lr
//	    .org  0x80000000       ; load address (before any label or instruction)
//	    .word 0xDEADBEEF       ; raw data word
//
// base is used when no .org directive appears. Every instruction takes
// the operands its form in opTable lists, and every immediate must fit its
// opcode's field; anything else is a "line N: ..." error. The returned
// error joins one such error per faulty line or label reference.
func ParseAsm(src string, base uint32) (*Program, error) {
	a := NewAsm(base)
	for lineNo, raw := range strings.Split(src, "\n") {
		a.line = lineNo + 1
		line := strings.TrimSpace(stripComment(raw))
		// Labels, possibly followed by an instruction on the same line.
		for {
			i := strings.Index(line, ":")
			if i < 0 || !isIdent(line[:i]) {
				break
			}
			a.Label(line[:i])
			line = strings.TrimSpace(line[i+1:])
		}
		if line == "" {
			continue
		}
		if err := parseLine(a, line); err != nil {
			a.fail(a.line, err)
		}
	}
	return a.Assemble()
}

func stripComment(s string) string {
	for _, c := range []string{";", "#", "//"} {
		if i := strings.Index(s, c); i >= 0 {
			s = s[:i]
		}
	}
	return s
}

func isIdent(s string) bool {
	if s == "" {
		return false
	}
	for i, r := range s {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r == '_':
		case r >= '0' && r <= '9':
			if i == 0 {
				return false
			}
		default:
			return false
		}
	}
	return true
}

// mnemonics maps each opcode's name in opTable to the opcode.
var mnemonics = func() map[string]Op {
	m := make(map[string]Op, NumOps)
	for op := Op(0); op.Valid(); op++ {
		m[opTable[op].name] = op
	}
	return m
}()

// parseLine assembles one directive, pseudo-op or instruction.
func parseLine(a *Asm, line string) error {
	mn, rest := line, ""
	if i := strings.IndexAny(line, " \t"); i >= 0 {
		mn, rest = line[:i], line[i:]
	}
	mn = strings.ToLower(mn)
	args := splitArgs(rest)

	switch mn {
	case ".org", ".word":
		if len(args) != 1 {
			return fmt.Errorf("%s takes 1 operand, got %d", mn, len(args))
		}
		v, err := num(args[0])
		if err != nil {
			return err
		}
		switch {
		case mn == ".word":
			a.words = append(a.words, uint32(v))
		case len(a.words) > 0 || len(a.syms) > 0:
			return fmt.Errorf(".org after labels or instructions")
		default:
			a.base = uint32(v)
		}
		return nil
	case "movw": // pseudo: load a full 32-bit constant
		if len(args) != 2 {
			return fmt.Errorf("movw takes 2 operands, got %d", len(args))
		}
		rd, err := reg(args[0])
		if err != nil {
			return err
		}
		v, err := num(args[1])
		if err != nil {
			return err
		}
		a.Movw(int(rd), uint32(v))
		return nil
	case "ret": // pseudo: jr lr
		if len(args) != 0 {
			return fmt.Errorf("ret takes no operands")
		}
		a.Ret()
		return nil
	}

	op, ok := mnemonics[mn]
	if !ok {
		return fmt.Errorf("unknown mnemonic %q", mn)
	}
	slots := formOperands[opTable[op].form]
	if len(args) != len(slots) {
		return fmt.Errorf("%s takes %d operands, got %d", op, len(slots), len(args))
	}
	in, label := Instr{Op: op}, ""
	for i, s := range args {
		var err error
		switch slots[i] {
		case argRd:
			in.Rd, err = reg(s)
		case argRa:
			in.Ra, err = reg(s)
		case argRb:
			in.Rb, err = reg(s)
		case argImm:
			in.Imm, err = imm(s)
		case argMem:
			in.Ra, in.Imm, err = mem(s)
		case argTarget:
			if isIdent(s) {
				label = s
			} else {
				*in.target(), err = imm(s)
			}
		case argCSR:
			in.Imm, err = csr(s)
		}
		if err != nil {
			return err
		}
	}
	if label != "" {
		a.emitFixup(in, label)
	} else {
		a.emit(in)
	}
	return nil
}

func splitArgs(s string) []string {
	s = strings.TrimSpace(s)
	if s == "" {
		return nil
	}
	parts := strings.Split(s, ",")
	for i := range parts {
		parts[i] = strings.TrimSpace(parts[i])
	}
	return parts
}

// num parses an optionally signed integer in Go literal syntax (0x, 0b,
// 0o prefixes). It must fit 32 bits, signed or unsigned.
func num(s string) (int64, error) {
	digits, neg := s, false
	switch {
	case strings.HasPrefix(s, "+"):
		digits = s[1:]
	case strings.HasPrefix(s, "-"):
		digits, neg = s[1:], true
	}
	v, err := strconv.ParseUint(digits, 0, 32)
	if err != nil || neg && v > 1<<31 {
		return 0, fmt.Errorf("bad 32-bit number %q", s)
	}
	if neg {
		return -int64(v), nil
	}
	return int64(v), nil
}

// imm parses an immediate operand; its opcode's range is Instr.check's.
func imm(s string) (int32, error) {
	v, err := num(s)
	if err == nil && int64(int32(v)) != v {
		err = fmt.Errorf("immediate %s does not fit an int32", s)
	}
	return int32(v), err
}

// reg parses rN, sp or lr.
func reg(s string) (uint8, error) {
	switch l := strings.ToLower(s); {
	case l == "sp":
		return RegSP, nil
	case l == "lr":
		return RegLink, nil
	case strings.HasPrefix(l, "r"):
		if n, err := strconv.ParseUint(l[1:], 10, 8); err == nil && n < NumRegs {
			return uint8(n), nil
		}
	}
	return 0, fmt.Errorf("bad register %q", s)
}

// csr parses csrN; whether CSR N is defined is Instr.Valid's rule.
func csr(s string) (int32, error) {
	if l := strings.ToLower(s); strings.HasPrefix(l, "csr") {
		if n, err := strconv.ParseUint(l[3:], 10, 8); err == nil {
			return int32(n), nil
		}
	}
	return 0, fmt.Errorf("bad csr %q", s)
}

// mem parses "[rA+off]", "[rA-off]" or "[rA]".
func mem(s string) (ra uint8, off int32, err error) {
	if !strings.HasPrefix(s, "[") || !strings.HasSuffix(s, "]") {
		return 0, 0, fmt.Errorf("bad memory operand %q", s)
	}
	s = s[1 : len(s)-1]
	regStr, offStr := s, ""
	if sep := strings.IndexAny(s, "+-"); sep > 0 {
		regStr, offStr = s[:sep], s[sep:]
	}
	if ra, err = reg(strings.TrimSpace(regStr)); err != nil || offStr == "" {
		return ra, 0, err
	}
	off, err = imm(strings.TrimSpace(offStr))
	return ra, off, err
}
