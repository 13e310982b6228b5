package asm

import (
	"errors"
	"fmt"
	"math"
	"strconv"
	"strings"

	"emsim/internal/isa"
)

// Assemble parses RV32IM assembly text and produces a Program. The dialect
// covers what the repository's programs need:
//
//   - one instruction, label ("name:") or directive per line
//   - comments with '#' or "//"
//   - registers by number (x0..x31) or ABI name (zero, ra, sp, t0, a0, ...)
//   - numbers in decimal or 0x hex; every number must fit in 32 bits,
//     signed or unsigned (-2³¹ … 2³²-1), and is taken as its low 32 bits
//   - %hi(label) as a lui/auipc immediate, %lo(label) as an I-type
//     immediate or a load/store offset
//   - memory operands as "offset(reg)" or "(reg)"
//   - branch/jump targets as labels or numeric offsets
//   - directives: .org ADDR (before code), .word v[, v...] (numbers or
//     labels), .space/.zero BYTES (a reservation may not grow the image
//     past 1 MiB), .align (a no-op: images are always word-aligned)
//   - pseudo-instructions: nop, li, la, mv, not, neg, seqz, snez, j, jr,
//     ret, call, beqz, bnez, bltz, bgez, bgtz, blez, bgt, ble, bgtu, bleu
//
// The text is read one statement at a time into the same Builder calls a
// Go program would make; every error names its source line.
func Assemble(src string) (*Program, error) {
	b := NewBuilder()
	for i, raw := range strings.Split(src, "\n") {
		b.line = i + 1
		line := strings.TrimSpace(stripComment(raw))
		for { // leading labels
			idx := strings.Index(line, ":")
			if idx < 0 || strings.ContainsAny(line[:idx], " \t,()") {
				break
			}
			b.Label(strings.TrimSpace(line[:idx]))
			line = strings.TrimSpace(line[idx+1:])
		}
		if line != "" {
			if err := statement(b, line); err != nil {
				return nil, err
			}
		}
		if len(b.errs) > 0 {
			return nil, b.errs[0]
		}
	}
	return b.Assemble()
}

// MustAssembleText is Assemble for known-good sources; it panics on error.
func MustAssembleText(src string) *Program {
	p, err := Assemble(src)
	if err != nil {
		panic(err)
	}
	return p
}

func stripComment(line string) string {
	if i := strings.Index(line, "#"); i >= 0 {
		line = line[:i]
	}
	if i := strings.Index(line, "//"); i >= 0 {
		line = line[:i]
	}
	return line
}

// maxImageBytes caps the image a .space or .zero reservation may grow.
// Each reserved word is stored as its own pending item until Assemble,
// so without the cap a short source line could allocate without bound.
// 1 MiB is far above any program the simulator runs.
const maxImageBytes = 1 << 20

var opByName = func() map[string]isa.Op {
	m := make(map[string]isa.Op, isa.NumOps)
	for _, op := range isa.AllOps() {
		m[op.String()] = op
	}
	return m
}()

// unary are the "op rd, rs" pseudo-instructions.
var unary = map[string]func(rd, rs isa.Reg) isa.Inst{
	"mv":   isa.Mv,
	"not":  func(rd, rs isa.Reg) isa.Inst { return isa.Xori(rd, rs, -1) },
	"neg":  func(rd, rs isa.Reg) isa.Inst { return isa.Sub(rd, isa.Zero, rs) },
	"seqz": func(rd, rs isa.Reg) isa.Inst { return isa.Sltiu(rd, rs, 1) },
	"snez": func(rd, rs isa.Reg) isa.Inst { return isa.Sltu(rd, isa.Zero, rs) },
}

// branchZero are the "op rs, target" pseudo-branches, which compare rs
// with x0; swap puts x0 first ("bgtz rs" is "blt zero, rs").
var branchZero = map[string]struct {
	op   isa.Op
	swap bool
}{
	"beqz": {isa.BEQ, false}, "bnez": {isa.BNE, false},
	"bltz": {isa.BLT, false}, "bgez": {isa.BGE, false},
	"bgtz": {isa.BLT, true}, "blez": {isa.BGE, true},
}

// branchSwap are the "op rs1, rs2, target" pseudo-branches: a real branch
// with its operands reversed ("bgt a, b" is "blt b, a").
var branchSwap = map[string]isa.Op{"bgt": isa.BLT, "ble": isa.BGE, "bgtu": isa.BLTU, "bleu": isa.BGEU}

// statement parses one instruction or directive into b.
func statement(b *Builder, line string) error {
	fields := strings.SplitN(line, " ", 2)
	s := &stmt{b: b, op: strings.ToLower(strings.TrimSpace(fields[0]))}
	if len(fields) > 1 && strings.TrimSpace(fields[1]) != "" {
		for _, a := range strings.Split(fields[1], ",") {
			s.args = append(s.args, strings.TrimSpace(a))
		}
	}
	if bz, ok := branchZero[s.op]; ok {
		s.want(2)
		rs1, rs2 := s.reg(0), isa.Zero
		if bz.swap {
			rs1, rs2 = rs2, rs1
		}
		s.emit(isa.Inst{Op: bz.op, Rs1: rs1, Rs2: rs2, Imm: s.target(1)})
		return s.err
	}
	if op, ok := branchSwap[s.op]; ok {
		s.want(3)
		rs2 := s.reg(0)
		s.emit(isa.Inst{Op: op, Rs1: s.reg(1), Rs2: rs2, Imm: s.target(2)})
		return s.err
	}
	if f, ok := unary[s.op]; ok {
		s.want(2)
		b.I(f(s.reg(0), s.reg(1)))
		return s.err
	}
	switch s.op {
	case ".org":
		s.want(1)
		b.SetOrigin(uint32(s.imm(0, fixNone)))
	case ".word":
		if len(s.args) == 0 {
			s.fail(".word wants at least one value")
		}
		for i, a := range s.args {
			if isIdent(a) {
				b.WordAddr(a)
			} else {
				b.Word(uint32(s.imm(i, fixNone)))
			}
		}
	case ".space", ".zero":
		s.want(1)
		n := int(s.imm(0, fixNone))
		if n < 0 || n > maxImageBytes-4*b.Len() {
			s.fail("%s: byte count %s outside [0, %d]", s.op, s.args[0], maxImageBytes-4*b.Len())
			break
		}
		for ; n > 0; n -= 4 {
			b.Word(0)
		}
	case ".align": // images are always word-aligned
	case "nop":
		s.want(0)
		b.I(isa.Nop())
	case "li":
		s.want(2)
		b.Li(s.reg(0), s.imm(1, fixNone))
	case "la":
		s.want(2)
		b.La(s.reg(0), s.label(1))
	case "j":
		s.want(1)
		s.emit(isa.Jal(isa.Zero, s.target(0)))
	case "call":
		s.want(1)
		s.emit(isa.Jal(isa.RA, s.target(0)))
	case "jr":
		s.want(1)
		b.I(isa.Jalr(isa.Zero, s.reg(0), 0))
	case "ret":
		s.want(0)
		b.I(isa.Jalr(isa.Zero, isa.RA, 0))
	default:
		instruction(s)
	}
	return s.err
}

// instruction parses a real instruction, by operand format.
func instruction(s *stmt) {
	op, ok := opByName[s.op]
	switch {
	case !ok && strings.HasPrefix(s.op, "."):
		s.fail("unknown directive %q", s.op)
	case !ok:
		s.fail("unknown mnemonic %q", s.op)
	case op.IsSystem() || op == isa.FENCE:
		s.want(0)
		s.b.I(isa.Inst{Op: op})
	case op.Format() == isa.FormatR:
		s.want(3)
		s.b.I(isa.Inst{Op: op, Rd: s.reg(0), Rs1: s.reg(1), Rs2: s.reg(2)})
	case op.IsLoad():
		s.want(2)
		rd := s.reg(0)
		off, base := s.mem(1, fixLo)
		s.emit(isa.Inst{Op: op, Rd: rd, Rs1: base, Imm: off})
	case op.IsStore():
		s.want(2)
		rs2 := s.reg(0)
		off, base := s.mem(1, fixLo)
		s.emit(isa.Inst{Op: op, Rs1: base, Rs2: rs2, Imm: off})
	case op.IsBranch():
		s.want(3)
		s.emit(isa.Inst{Op: op, Rs1: s.reg(0), Rs2: s.reg(1), Imm: s.target(2)})
	case op == isa.LUI || op == isa.AUIPC:
		s.want(2)
		s.emit(isa.Inst{Op: op, Rd: s.reg(0), Imm: s.imm(1, fixHi)})
	case op == isa.JAL:
		if len(s.args) == 1 { // "jal target" links ra
			s.args = append([]string{"ra"}, s.args...)
		}
		s.want(2)
		s.emit(isa.Jal(s.reg(0), s.target(1)))
	case op == isa.JALR:
		s.want(2)
		rd := s.reg(0)
		off, base := s.mem(1, fixNone)
		s.b.I(isa.Jalr(rd, base, off))
	default: // I-type ALU and shifts
		s.want(3)
		s.emit(isa.Inst{Op: op, Rd: s.reg(0), Rs1: s.reg(1), Imm: s.imm(2, fixLo)})
	}
}

// stmt reads the operands of one statement. A failed read records the
// statement's first error, and from then on every read returns a zero
// value, so a form reads all its operands and checks once, at the end.
type stmt struct {
	b    *Builder
	op   string   // mnemonic or directive, lower-cased
	args []string // operands, trimmed
	err  error

	// fix and ref are the label reference an operand named, if any;
	// emit hands them to the Builder with the instruction.
	fix fixupKind
	ref string
}

func (s *stmt) fail(format string, args ...any) {
	if s.err == nil {
		s.err = errorf(s.b.line, format, args...)
	}
}

// want checks that the statement has n operands.
func (s *stmt) want(n int) {
	if len(s.args) != n {
		s.fail("%s wants %d operands, got %d", s.op, n, len(s.args))
	}
}

// arg returns operand i, or "" once a read has failed.
func (s *stmt) arg(i int) string {
	if s.err != nil {
		return ""
	}
	return s.args[i]
}

// emit appends in, patched at Assemble time by the label an operand named.
func (s *stmt) emit(in isa.Inst) { s.b.fixup(in, s.fix, s.ref) }

// reg reads operand i as a register.
func (s *stmt) reg(i int) isa.Reg { return s.regNamed(s.arg(i)) }

func (s *stmt) regNamed(name string) isa.Reg {
	r, ok := regNames[strings.ToLower(strings.TrimSpace(name))]
	if !ok {
		s.fail("%s: bad register %q", s.op, name)
	}
	return r
}

// imm reads operand i as a number or, where rel is fixHi or fixLo, as
// %hi(label) or %lo(label).
func (s *stmt) imm(i int, rel fixupKind) int32 { return s.value(s.arg(i), rel) }

// relocs are the operand prefixes of the %hi and %lo relocations.
var relocs = [...]string{fixHi: "%hi(", fixLo: "%lo("}

func (s *stmt) value(str string, rel fixupKind) int32 {
	if p := relocs[rel]; p != "" && strings.HasPrefix(str, p) && strings.HasSuffix(str, ")") {
		s.refer(rel, str[len(p):len(str)-1])
		return 0
	}
	v, err := parseImm(str)
	if err != nil {
		s.fail("%s: %v", s.op, err)
	}
	return v
}

// mem reads operand i as a memory operand, "offset(reg)" or "(reg)",
// whose offset may be %lo(label) where rel is fixLo.
func (s *stmt) mem(i int, rel fixupKind) (off int32, base isa.Reg) {
	str := s.arg(i)
	open := strings.LastIndex(str, "(")
	if open < 0 || !strings.HasSuffix(str, ")") {
		s.fail("%s: bad memory operand %q", s.op, str)
		return 0, 0
	}
	base = s.regNamed(str[open+1 : len(str)-1])
	if offStr := strings.TrimSpace(str[:open]); offStr != "" {
		off = s.value(offStr, rel)
	}
	return off, base
}

// target reads operand i as a branch or jump target: a label, or a
// PC-relative byte offset.
func (s *stmt) target(i int) int32 {
	str := s.arg(i)
	if isIdent(str) {
		s.refer(fixPC, str)
		return 0
	}
	return s.value(str, fixNone)
}

// label reads operand i as a label name.
func (s *stmt) label(i int) string {
	str := s.arg(i)
	if !isIdent(str) {
		s.fail("%s: bad label %q", s.op, str)
	}
	return str
}

// refer records that the instruction being read takes label's address.
func (s *stmt) refer(kind fixupKind, label string) {
	if label == "" {
		s.fail("%s: empty label", s.op)
	}
	s.fix, s.ref = kind, label
}

// parseImm parses a decimal or 0x-hex number that fits in 32 bits,
// signed or unsigned, and returns its low 32 bits: 0xFFFFFFFF and -1 are
// the same word.
func parseImm(s string) (int32, error) {
	v, err := strconv.ParseInt(s, 0, 64)
	if err != nil && !errors.Is(err, strconv.ErrRange) {
		return 0, fmt.Errorf("bad number %q", s)
	}
	if err != nil || v < math.MinInt32 || v > math.MaxUint32 {
		return 0, fmt.Errorf("number %s does not fit in 32 bits", s)
	}
	return int32(v), nil
}

// isIdent reports whether s looks like a label name rather than a number.
func isIdent(s string) bool {
	if s == "" {
		return false
	}
	c := s[0]
	if !(c == '_' || c == '.' || (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z')) {
		return false
	}
	for i := 1; i < len(s); i++ {
		c := s[i]
		if !(c == '_' || c == '.' || (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || (c >= '0' && c <= '9')) {
			return false
		}
	}
	return true
}

var regNames = func() map[string]isa.Reg {
	m := make(map[string]isa.Reg, 2*isa.NumRegs)
	for i := 0; i < isa.NumRegs; i++ {
		r := isa.Reg(i)
		m[fmt.Sprintf("x%d", i)] = r
		m[r.String()] = r
	}
	m["fp"] = isa.S0
	return m
}()
