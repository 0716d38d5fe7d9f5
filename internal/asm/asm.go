// Package asm implements a two-pass assembler for the ISA in package isa.
//
// Syntax, one statement per line:
//
//	; comment           # comment
//	label:              (may share a line with an instruction)
//	.org 0x1000         set the load/assembly origin (once, before code)
//	.word v, v, ...     emit literal words (numbers or label references)
//	.space n            reserve n zeroed bytes (n multiple of 4)
//
//	add  rd, rs1, rs2   (and all R-type arithmetic)
//	addi rd, rs1, imm   (and all I-type arithmetic)
//	lui  rd, imm
//	lw   rd, imm(rs1)   sw rd, imm(rs1)   lb/sb likewise
//	bcnd cond, rs1, target
//	br   target         bsr target
//	jmp  rs              jsr rs
//	trap imm            halt
//
// Pseudo-instructions: li rd, imm32 (addi or lui+ori), la rd, label
// (lui+ori), mv rd, rs (addi rd, rs, 0), rts (jmp ra), nop.
//
// Registers are r0..r31; zero, sp and ra alias r0, r30 and r31.
package asm

import (
	"encoding/binary"
	"fmt"
	"strconv"
	"strings"

	"twolevel/internal/isa"
)

// DefaultBase is the load address used when no .org directive appears.
const DefaultBase = 0x1000

// Program is an assembled memory image.
type Program struct {
	// Base is the load address of the first byte of Image.
	Base uint32
	// Image is the little-endian byte image (text and data).
	Image []byte
	// Labels maps label names to absolute addresses.
	Labels map[string]uint32
	// TextEnd is the address one past the last instruction emitted
	// before the first data directive; the CPU uses it to detect stores
	// into code.
	TextEnd uint32
}

// Entry returns the program's entry point (its base address).
func (p *Program) Entry() uint32 { return p.Base }

// Size returns the image size in bytes.
func (p *Program) Size() int { return len(p.Image) }

type statement struct {
	line int // 1-based source line
	// one of (an instruction is held by value: most statements are
	// instructions, and a pointer would cost one allocation each):
	isInst bool
	inst   isa.Inst
	target string // label operand for branch instructions (resolved pass 2)
	word   *wordDirective
	space  int
}

type wordDirective struct {
	values []string // numbers or labels, resolved pass 2
}

type assembler struct {
	base    uint32
	baseSet bool
	pc      uint32
	stmts   []statement
	labels  map[string]uint32
	textEnd uint32
	sawData bool
}

// Assemble assembles source into a Program.
func Assemble(src string) (*Program, error) {
	lines := strings.Split(src, "\n")
	a := &assembler{labels: make(map[string]uint32), stmts: make([]statement, 0, len(lines))}
	// Pass 1: parse, size, collect labels.
	for i, raw := range lines {
		if err := a.parseLine(i+1, raw); err != nil {
			return nil, fmt.Errorf("asm: line %d: %v (%q)", i+1, err, strings.TrimSpace(raw))
		}
	}
	if !a.baseSet {
		a.base = DefaultBase
	}
	if !a.sawData {
		a.textEnd = a.base + a.pc
	}
	// Pass 2: resolve and encode.
	image := make([]byte, a.pc)
	off := uint32(0)
	for _, st := range a.stmts {
		switch {
		case st.isInst:
			in := st.inst
			if st.target != "" {
				switch {
				case strings.HasPrefix(st.target, "hi:"):
					addr, err := a.resolve(st.target[3:])
					if err != nil {
						return nil, fmt.Errorf("asm: line %d: %v", st.line, err)
					}
					in.Imm = int32(int16(addr >> 16))
				case strings.HasPrefix(st.target, "lo:"):
					addr, err := a.resolve(st.target[3:])
					if err != nil {
						return nil, fmt.Errorf("asm: line %d: %v", st.line, err)
					}
					in.Imm = int32(int16(addr))
				default:
					addr, err := a.resolveValue(st.target)
					if err != nil {
						return nil, fmt.Errorf("asm: line %d: %v", st.line, err)
					}
					here := a.base + off
					if (int64(addr)-int64(here))%4 != 0 {
						return nil, fmt.Errorf("asm: line %d: branch target %#x not word-aligned", st.line, addr)
					}
					in.Imm = int32((int64(addr) - int64(here)) / 4)
				}
			}
			w, err := isa.Encode(in)
			if err != nil {
				return nil, fmt.Errorf("asm: line %d: %v", st.line, err)
			}
			binary.LittleEndian.PutUint32(image[off:], w)
			off += 4
		case st.word != nil:
			for _, v := range st.word.values {
				val, err := a.resolveValue(v)
				if err != nil {
					return nil, fmt.Errorf("asm: line %d: %v", st.line, err)
				}
				binary.LittleEndian.PutUint32(image[off:], val)
				off += 4
			}
		default:
			off += uint32(st.space)
		}
	}
	return &Program{Base: a.base, Image: image, Labels: a.labels, TextEnd: a.textEnd}, nil
}

// MustAssemble is Assemble that panics on error, for generated programs
// whose well-formedness is a code invariant.
func MustAssemble(src string) *Program {
	p, err := Assemble(src)
	if err != nil {
		panic(err)
	}
	return p
}

func (a *assembler) resolve(label string) (uint32, error) {
	if addr, ok := a.labels[label]; ok {
		return addr, nil
	}
	return 0, fmt.Errorf("undefined label %q", label)
}

// resolveValue resolves a number or a label. Labels are looked up first:
// no label can parse as a number (labels never start with a digit or a
// sign), and the lookup spares every label operand a failed parseNum and
// the error value it builds.
func (a *assembler) resolveValue(v string) (uint32, error) {
	if addr, ok := a.labels[v]; ok {
		return addr, nil
	}
	if n, err := parseNum(v); err == nil {
		return uint32(n), nil
	}
	return a.resolve(v)
}

func (a *assembler) parseLine(line int, raw string) error {
	s := raw
	if i := strings.IndexAny(s, ";#"); i >= 0 {
		s = s[:i]
	}
	s = strings.TrimSpace(s)
	for {
		colon := strings.IndexByte(s, ':')
		if colon < 0 {
			break
		}
		name := strings.TrimSpace(s[:colon])
		if !validLabel(name) {
			return fmt.Errorf("invalid label %q", name)
		}
		if _, dup := a.labels[name]; dup {
			return fmt.Errorf("duplicate label %q", name)
		}
		if !a.baseSet {
			a.base = DefaultBase
			a.baseSet = true
		}
		a.labels[name] = a.base + a.pc
		s = strings.TrimSpace(s[colon+1:])
	}
	if s == "" {
		return nil
	}
	mnemonic, rest, _ := strings.Cut(s, " ")
	rest = strings.TrimSpace(rest)
	if strings.HasPrefix(mnemonic, ".") {
		return a.directive(line, mnemonic, rest)
	}
	if !a.baseSet {
		a.base = DefaultBase
		a.baseSet = true
	}
	return a.instruction(line, mnemonic, rest)
}

func (a *assembler) directive(line int, name, rest string) error {
	switch name {
	case ".org":
		if a.baseSet {
			return fmt.Errorf(".org must appear once, before any code")
		}
		n, err := parseNum(rest)
		if err != nil {
			return fmt.Errorf(".org: %v", err)
		}
		if n%4 != 0 || n < 0 {
			return fmt.Errorf(".org address %d must be non-negative and word-aligned", n)
		}
		a.base = uint32(n)
		a.baseSet = true
		return nil
	case ".word":
		a.markData()
		values := splitOperands(rest)
		if len(values) == 0 {
			return fmt.Errorf(".word needs at least one value")
		}
		a.stmts = append(a.stmts, statement{line: line, word: &wordDirective{values: values}})
		a.pc += uint32(4 * len(values))
		return nil
	case ".space":
		a.markData()
		n, err := parseNum(rest)
		if err != nil {
			return fmt.Errorf(".space: %v", err)
		}
		if n <= 0 || n%4 != 0 {
			return fmt.Errorf(".space size %d must be a positive multiple of 4", n)
		}
		a.stmts = append(a.stmts, statement{line: line, space: int(n)})
		a.pc += uint32(n)
		return nil
	default:
		return fmt.Errorf("unknown directive %q", name)
	}
}

// markData records the start of the data segment at first data directive.
func (a *assembler) markData() {
	if !a.baseSet {
		a.base = DefaultBase
		a.baseSet = true
	}
	if !a.sawData {
		a.sawData = true
		a.textEnd = a.base + a.pc
	}
}

func (a *assembler) emit(line int, in isa.Inst, target string) {
	a.stmts = append(a.stmts, statement{line: line, isInst: true, inst: in, target: target})
	a.pc += 4
}

func (a *assembler) instruction(line int, mnemonic, rest string) error {
	ops := splitOperands(rest)
	// Pseudo-instructions first.
	switch mnemonic {
	case "nop":
		if len(ops) != 0 {
			return fmt.Errorf("nop takes no operands")
		}
		a.emit(line, isa.Inst{Op: isa.ADDI}, "")
		return nil
	case "rts":
		if len(ops) != 0 {
			return fmt.Errorf("rts takes no operands")
		}
		a.emit(line, isa.Inst{Op: isa.JMP, Rs1: isa.RLink}, "")
		return nil
	case "mv":
		if len(ops) != 2 {
			return fmt.Errorf("mv wants 2 operands")
		}
		rd, err := parseReg(ops[0])
		if err != nil {
			return err
		}
		rs, err := parseReg(ops[1])
		if err != nil {
			return err
		}
		a.emit(line, isa.Inst{Op: isa.ADDI, Rd: rd, Rs1: rs}, "")
		return nil
	case "li":
		if len(ops) != 2 {
			return fmt.Errorf("li wants 2 operands")
		}
		rd, err := parseReg(ops[0])
		if err != nil {
			return err
		}
		v64, err := parseNum(ops[1])
		if err != nil {
			return err
		}
		v := uint32(v64)
		if int64(int32(v)) != v64 && v64 != int64(v) {
			return fmt.Errorf("li value %d out of 32-bit range", v64)
		}
		if sv := int32(v); sv >= -(1<<15) && sv < 1<<15 {
			a.emit(line, isa.Inst{Op: isa.ADDI, Rd: rd, Imm: sv}, "")
			return nil
		}
		a.emit(line, isa.Inst{Op: isa.LUI, Rd: rd, Imm: int32(int16(v >> 16))}, "")
		a.emit(line, isa.Inst{Op: isa.ORI, Rd: rd, Rs1: rd, Imm: int32(int16(v))}, "")
		return nil
	case "la":
		if len(ops) != 2 {
			return fmt.Errorf("la wants 2 operands")
		}
		rd, err := parseReg(ops[0])
		if err != nil {
			return err
		}
		if !validLabel(ops[1]) {
			return fmt.Errorf("la wants a label, got %q", ops[1])
		}
		// Always two instructions so pass-1 sizing is deterministic;
		// the halves are patched in pass 2 via synthetic hi/lo targets.
		a.emit(line, isa.Inst{Op: isa.LUI, Rd: rd}, "hi:"+ops[1])
		a.emit(line, isa.Inst{Op: isa.ORI, Rd: rd, Rs1: rd}, "lo:"+ops[1])
		return nil
	}

	op, err := isa.ParseOp(mnemonic)
	if err != nil {
		return err
	}
	in := isa.Inst{Op: op}
	switch op {
	case isa.JMP, isa.JSR:
		if len(ops) != 1 {
			return fmt.Errorf("%s wants 1 operand", op)
		}
		in.Rs1, err = parseReg(ops[0])
		if err != nil {
			return err
		}
		a.emit(line, in, "")
		return nil
	case isa.BR, isa.BSR:
		if len(ops) != 1 {
			return fmt.Errorf("%s wants 1 operand", op)
		}
		a.emit(line, in, ops[0])
		return nil
	case isa.BCND:
		if len(ops) != 3 {
			return fmt.Errorf("bcnd wants cond, reg, target")
		}
		in.Cond, err = isa.ParseCond(ops[0])
		if err != nil {
			return err
		}
		in.Rs1, err = parseReg(ops[1])
		if err != nil {
			return err
		}
		a.emit(line, in, ops[2])
		return nil
	case isa.LW, isa.SW, isa.LB, isa.SB:
		if len(ops) != 2 {
			return fmt.Errorf("%s wants reg, imm(reg)", op)
		}
		in.Rd, err = parseReg(ops[0])
		if err != nil {
			return err
		}
		in.Imm, in.Rs1, err = parseMem(ops[1])
		if err != nil {
			return err
		}
		a.emit(line, in, "")
		return nil
	case isa.LUI:
		if len(ops) != 2 {
			return fmt.Errorf("lui wants reg, imm")
		}
		in.Rd, err = parseReg(ops[0])
		if err != nil {
			return err
		}
		in.Imm, err = parseImm(ops[1])
		if err != nil {
			return err
		}
		a.emit(line, in, "")
		return nil
	case isa.TRAP:
		if len(ops) != 1 {
			return fmt.Errorf("trap wants a code")
		}
		in.Imm, err = parseImm(ops[0])
		if err != nil {
			return err
		}
		a.emit(line, in, "")
		return nil
	case isa.HALT:
		if len(ops) != 0 {
			return fmt.Errorf("halt takes no operands")
		}
		a.emit(line, in, "")
		return nil
	}
	switch op.Format() {
	case isa.FormatR:
		if len(ops) != 3 {
			return fmt.Errorf("%s wants rd, rs1, rs2", op)
		}
		if in.Rd, err = parseReg(ops[0]); err != nil {
			return err
		}
		if in.Rs1, err = parseReg(ops[1]); err != nil {
			return err
		}
		if in.Rs2, err = parseReg(ops[2]); err != nil {
			return err
		}
	case isa.FormatI:
		if len(ops) != 3 {
			return fmt.Errorf("%s wants rd, rs1, imm", op)
		}
		if in.Rd, err = parseReg(ops[0]); err != nil {
			return err
		}
		if in.Rs1, err = parseReg(ops[1]); err != nil {
			return err
		}
		if in.Imm, err = parseImm(ops[2]); err != nil {
			return err
		}
	default:
		return fmt.Errorf("unhandled format for %s", op)
	}
	a.emit(line, in, "")
	return nil
}

func validLabel(s string) bool {
	if s == "" {
		return false
	}
	for i, r := range s {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r == '_', r == '.':
		case r >= '0' && r <= '9':
			if i == 0 {
				return false
			}
		default:
			return false
		}
	}
	// Register names and mnemonics could collide; forbid rN forms.
	_, reg := regNum(s)
	return !reg
}

func splitOperands(s string) []string {
	if strings.TrimSpace(s) == "" {
		return nil
	}
	parts := strings.Split(s, ",")
	for i, p := range parts {
		parts[i] = strings.TrimSpace(p)
	}
	return parts
}

func parseReg(s string) (uint8, error) {
	if n, ok := regNum(s); ok {
		return n, nil
	}
	return 0, fmt.Errorf("invalid register %q", s)
}

// regNum reports whether s names a register, and which: "zero", "sp",
// "ra", or r<n> with n in [0, NumRegs) written the way strconv.Atoi
// reads it (an optional sign, then decimal digits). It builds no error
// value, so validLabel can probe every label with it for free.
func regNum(s string) (uint8, bool) {
	switch s {
	case "zero":
		return isa.R0, true
	case "sp":
		return isa.RSP, true
	case "ra":
		return isa.RLink, true
	}
	if len(s) < 2 || s[0] != 'r' {
		return 0, false
	}
	digits := s[1:]
	neg := false
	if digits[0] == '+' || digits[0] == '-' {
		neg = digits[0] == '-'
		digits = digits[1:]
	}
	if digits == "" {
		return 0, false
	}
	n := 0
	for i := 0; i < len(digits); i++ {
		d := digits[i]
		if d < '0' || d > '9' {
			return 0, false
		}
		if n = n*10 + int(d-'0'); n >= isa.NumRegs {
			return 0, false
		}
	}
	if neg && n != 0 {
		return 0, false
	}
	return uint8(n), true
}

func parseNum(s string) (int64, error) {
	s = strings.TrimSpace(s)
	neg := false
	if strings.HasPrefix(s, "-") {
		neg = true
		s = s[1:]
	}
	var (
		v   uint64
		err error
	)
	if strings.HasPrefix(s, "0x") || strings.HasPrefix(s, "0X") {
		v, err = strconv.ParseUint(s[2:], 16, 32)
	} else {
		v, err = strconv.ParseUint(s, 10, 32)
	}
	if err != nil {
		return 0, fmt.Errorf("invalid number %q", s)
	}
	n := int64(v)
	if neg {
		n = -n
	}
	return n, nil
}

func parseImm(s string) (int32, error) {
	n, err := parseNum(s)
	if err != nil {
		return 0, err
	}
	if n < -(1<<15) || n > 1<<15-1 {
		return 0, fmt.Errorf("immediate %d out of 16-bit range", n)
	}
	return int32(n), nil
}

// parseMem parses "imm(reg)".
func parseMem(s string) (int32, uint8, error) {
	open := strings.IndexByte(s, '(')
	if open < 0 || !strings.HasSuffix(s, ")") {
		return 0, 0, fmt.Errorf("invalid memory operand %q", s)
	}
	immStr := strings.TrimSpace(s[:open])
	imm := int32(0)
	if immStr != "" {
		v, err := parseImm(immStr)
		if err != nil {
			return 0, 0, err
		}
		imm = v
	}
	reg, err := parseReg(strings.TrimSpace(s[open+1 : len(s)-1]))
	if err != nil {
		return 0, 0, err
	}
	return imm, reg, nil
}
