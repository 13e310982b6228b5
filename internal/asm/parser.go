package asm

import (
	"fmt"
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
//   - immediates in decimal or 0x hex, %hi(label) / %lo(label)
//   - memory operands as "offset(reg)"
//   - branch/jump targets as labels or numeric offsets
//   - directives: .org ADDR (before code), .word v[, v...], .space BYTES
//     (a reservation may not grow the image past 1 MiB)
//   - pseudo-instructions: nop, li, la, mv, not, neg, seqz, snez, j, jr,
//     ret, call, beqz, bnez, bltz, bgez, bgtz, blez, bgt, ble, bgtu, bleu
func Assemble(src string) (*Program, error) {
	b := NewBuilder()
	for lineNo, raw := range strings.Split(src, "\n") {
		line := stripComment(raw)
		line = strings.TrimSpace(line)
		if line == "" {
			continue
		}
		// Leading label(s).
		for {
			idx := strings.Index(line, ":")
			if idx < 0 || strings.ContainsAny(line[:idx], " \t,()") {
				break
			}
			label := strings.TrimSpace(line[:idx])
			if label == "" {
				return nil, fmt.Errorf("asm: line %d: empty label", lineNo+1)
			}
			b.Label(label)
			line = strings.TrimSpace(line[idx+1:])
			if line == "" {
				break
			}
		}
		if line == "" {
			continue
		}
		if err := parseStatement(b, line, lineNo+1); err != nil {
			return nil, err
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

func parseStatement(b *Builder, line string, lineNo int) error {
	fields := strings.SplitN(line, " ", 2)
	mnemonic := strings.ToLower(strings.TrimSpace(fields[0]))
	var rest string
	if len(fields) > 1 {
		rest = strings.TrimSpace(fields[1])
	}
	var args []string
	if rest != "" {
		for _, a := range strings.Split(rest, ",") {
			args = append(args, strings.TrimSpace(a))
		}
	}
	errf := func(format string, a ...any) error {
		return fmt.Errorf("asm: line %d: "+format, append([]any{lineNo}, a...)...)
	}

	if strings.HasPrefix(mnemonic, ".") {
		return parseDirective(b, mnemonic, args, errf)
	}
	return parseInstruction(b, mnemonic, args, lineNo, errf)
}

// maxImageBytes caps the image a .space or .zero reservation may grow.
// Each reserved word is stored as its own pending item until Assemble,
// so without the cap a short source line could allocate without bound.
// 1 MiB is far above any program the simulator runs.
const maxImageBytes = 1 << 20

func parseDirective(b *Builder, dir string, args []string, errf func(string, ...any) error) error {
	switch dir {
	case ".org":
		if len(args) != 1 {
			return errf(".org wants one address")
		}
		v, err := parseImm(args[0])
		if err != nil {
			return errf(".org: %v", err)
		}
		b.SetOrigin(uint32(v))
		return nil
	case ".word":
		if len(args) == 0 {
			return errf(".word wants at least one value")
		}
		for _, a := range args {
			if v, err := parseImm(a); err == nil {
				b.Word(uint32(v))
			} else if isIdent(a) {
				b.WordAddr(a)
			} else {
				return errf(".word: bad value %q", a)
			}
		}
		return nil
	case ".space", ".zero":
		if len(args) != 1 {
			return errf("%s wants a byte count", dir)
		}
		n, err := parseImm(args[0])
		if err != nil || n < 0 {
			return errf("%s: bad count %q", dir, args[0])
		}
		if n > maxImageBytes-4*int64(b.Len()) {
			return errf("%s: %d bytes would grow the image past %d bytes", dir, n, maxImageBytes)
		}
		for i := int64(0); i < (n+3)/4; i++ {
			b.Word(0)
		}
		return nil
	case ".align":
		return nil // images are always word-aligned
	default:
		return errf("unknown directive %q", dir)
	}
}

var opByName = func() map[string]isa.Op {
	m := make(map[string]isa.Op, isa.NumOps)
	for _, op := range isa.AllOps() {
		m[op.String()] = op
	}
	return m
}()

func parseInstruction(b *Builder, mnemonic string, args []string, lineNo int, errf func(string, ...any) error) error {
	nargs := func(n int) error {
		if len(args) != n {
			return errf("%s wants %d operands, got %d", mnemonic, n, len(args))
		}
		return nil
	}
	reg := func(i int) (isa.Reg, error) {
		r, ok := regByName(args[i])
		if !ok {
			return 0, errf("%s: bad register %q", mnemonic, args[i])
		}
		return r, nil
	}
	addItem := func(it item) {
		it.line = lineNo
		b.items = append(b.items, it)
	}

	// Pseudo-instructions first.
	switch mnemonic {
	case "nop":
		if err := nargs(0); err != nil {
			return err
		}
		b.I(isa.Nop())
		return nil
	case "li":
		if err := nargs(2); err != nil {
			return err
		}
		rd, err := reg(0)
		if err != nil {
			return err
		}
		v, err := parseImm(args[1])
		if err != nil {
			return errf("li: bad immediate %q", args[1])
		}
		b.Li(rd, int32(v))
		return nil
	case "la":
		if err := nargs(2); err != nil {
			return err
		}
		rd, err := reg(0)
		if err != nil {
			return err
		}
		if !isIdent(args[1]) {
			return errf("la: bad label %q", args[1])
		}
		b.La(rd, args[1])
		return nil
	case "mv":
		if err := nargs(2); err != nil {
			return err
		}
		rd, err := reg(0)
		if err != nil {
			return err
		}
		rs, err := reg(1)
		if err != nil {
			return err
		}
		b.I(isa.Mv(rd, rs))
		return nil
	case "not":
		if err := nargs(2); err != nil {
			return err
		}
		rd, _ := reg(0)
		rs, err := reg(1)
		if err != nil {
			return err
		}
		b.I(isa.Xori(rd, rs, -1))
		return nil
	case "neg":
		if err := nargs(2); err != nil {
			return err
		}
		rd, _ := reg(0)
		rs, err := reg(1)
		if err != nil {
			return err
		}
		b.I(isa.Sub(rd, isa.Zero, rs))
		return nil
	case "seqz":
		if err := nargs(2); err != nil {
			return err
		}
		rd, _ := reg(0)
		rs, err := reg(1)
		if err != nil {
			return err
		}
		b.I(isa.Sltiu(rd, rs, 1))
		return nil
	case "snez":
		if err := nargs(2); err != nil {
			return err
		}
		rd, _ := reg(0)
		rs, err := reg(1)
		if err != nil {
			return err
		}
		b.I(isa.Sltu(rd, isa.Zero, rs))
		return nil
	case "j":
		if err := nargs(1); err != nil {
			return err
		}
		return jumpTarget(b, isa.Zero, args[0], lineNo, errf)
	case "call":
		if err := nargs(1); err != nil {
			return err
		}
		return jumpTarget(b, isa.RA, args[0], lineNo, errf)
	case "jr":
		if err := nargs(1); err != nil {
			return err
		}
		rs, err := reg(0)
		if err != nil {
			return err
		}
		b.I(isa.Jalr(isa.Zero, rs, 0))
		return nil
	case "ret":
		if err := nargs(0); err != nil {
			return err
		}
		b.I(isa.Jalr(isa.Zero, isa.RA, 0))
		return nil
	case "beqz", "bnez", "bltz", "bgez", "bgtz", "blez":
		if err := nargs(2); err != nil {
			return err
		}
		rs, err := reg(0)
		if err != nil {
			return err
		}
		var op isa.Op
		var r1, r2 isa.Reg
		switch mnemonic {
		case "beqz":
			op, r1, r2 = isa.BEQ, rs, isa.Zero
		case "bnez":
			op, r1, r2 = isa.BNE, rs, isa.Zero
		case "bltz":
			op, r1, r2 = isa.BLT, rs, isa.Zero
		case "bgez":
			op, r1, r2 = isa.BGE, rs, isa.Zero
		case "bgtz":
			op, r1, r2 = isa.BLT, isa.Zero, rs
		case "blez":
			op, r1, r2 = isa.BGE, isa.Zero, rs
		}
		return branchTarget(b, op, r1, r2, args[1], lineNo, errf)
	case "bgt", "ble", "bgtu", "bleu":
		if err := nargs(3); err != nil {
			return err
		}
		r1, err := reg(0)
		if err != nil {
			return err
		}
		r2, err := reg(1)
		if err != nil {
			return err
		}
		var op isa.Op
		switch mnemonic {
		case "bgt":
			op = isa.BLT
		case "ble":
			op = isa.BGE
		case "bgtu":
			op = isa.BLTU
		case "bleu":
			op = isa.BGEU
		}
		return branchTarget(b, op, r2, r1, args[2], lineNo, errf)
	}

	op, ok := opByName[mnemonic]
	if !ok {
		return errf("unknown mnemonic %q", mnemonic)
	}

	switch {
	case op.IsSystem() || op == isa.FENCE:
		if err := nargs(0); err != nil {
			return err
		}
		b.I(isa.Inst{Op: op})
		return nil
	case op.Format() == isa.FormatR:
		if err := nargs(3); err != nil {
			return err
		}
		rd, err := reg(0)
		if err != nil {
			return err
		}
		rs1, err := reg(1)
		if err != nil {
			return err
		}
		rs2, err := reg(2)
		if err != nil {
			return err
		}
		b.I(isa.Inst{Op: op, Rd: rd, Rs1: rs1, Rs2: rs2})
		return nil
	case op.IsLoad():
		if err := nargs(2); err != nil {
			return err
		}
		rd, err := reg(0)
		if err != nil {
			return err
		}
		off, rs1, fx, label, err := parseMemOperand(args[1])
		if err != nil {
			return errf("%s: %v", mnemonic, err)
		}
		addItem(item{inst: isa.Inst{Op: op, Rd: rd, Rs1: rs1, Imm: off}, fix: fx, label: label})
		return nil
	case op.IsStore():
		if err := nargs(2); err != nil {
			return err
		}
		rs2, err := reg(0)
		if err != nil {
			return err
		}
		off, rs1, fx, label, err := parseMemOperand(args[1])
		if err != nil {
			return errf("%s: %v", mnemonic, err)
		}
		addItem(item{inst: isa.Inst{Op: op, Rs1: rs1, Rs2: rs2, Imm: off}, fix: fx, label: label})
		return nil
	case op.IsBranch():
		if err := nargs(3); err != nil {
			return err
		}
		rs1, err := reg(0)
		if err != nil {
			return err
		}
		rs2, err := reg(1)
		if err != nil {
			return err
		}
		return branchTarget(b, op, rs1, rs2, args[2], lineNo, errf)
	case op == isa.LUI || op == isa.AUIPC:
		if err := nargs(2); err != nil {
			return err
		}
		rd, err := reg(0)
		if err != nil {
			return err
		}
		if label, ok := hiRef(args[1]); ok {
			addItem(item{inst: isa.Inst{Op: op, Rd: rd}, fix: fixHi, label: label})
			return nil
		}
		v, err := parseImm(args[1])
		if err != nil {
			return errf("%s: bad immediate %q", mnemonic, args[1])
		}
		b.I(isa.Inst{Op: op, Rd: rd, Imm: int32(v)})
		return nil
	case op == isa.JAL:
		switch len(args) {
		case 1:
			return jumpTarget(b, isa.RA, args[0], lineNo, errf)
		case 2:
			rd, err := reg(0)
			if err != nil {
				return err
			}
			return jumpTarget(b, rd, args[1], lineNo, errf)
		default:
			return errf("jal wants 1 or 2 operands")
		}
	case op == isa.JALR:
		if err := nargs(2); err != nil {
			return err
		}
		rd, err := reg(0)
		if err != nil {
			return err
		}
		off, rs1, fx, label, err := parseMemOperand(args[1])
		if err != nil || fx != fixNone {
			return errf("jalr: bad operand %q", args[1])
		}
		_ = label
		b.I(isa.Jalr(rd, rs1, off))
		return nil
	default: // I-type ALU and shifts
		if err := nargs(3); err != nil {
			return err
		}
		rd, err := reg(0)
		if err != nil {
			return err
		}
		rs1, err := reg(1)
		if err != nil {
			return err
		}
		if label, ok := loRef(args[2]); ok {
			addItem(item{inst: isa.Inst{Op: op, Rd: rd, Rs1: rs1}, fix: fixLo, label: label})
			return nil
		}
		v, err := parseImm(args[2])
		if err != nil {
			return errf("%s: bad immediate %q", mnemonic, args[2])
		}
		b.I(isa.Inst{Op: op, Rd: rd, Rs1: rs1, Imm: int32(v)})
		return nil
	}
}

func jumpTarget(b *Builder, rd isa.Reg, target string, lineNo int, errf func(string, ...any) error) error {
	if isIdent(target) {
		b.items = append(b.items, item{
			inst: isa.Inst{Op: isa.JAL, Rd: rd}, fix: fixJump, label: target, line: lineNo,
		})
		return nil
	}
	v, err := parseImm(target)
	if err != nil {
		return errf("bad jump target %q", target)
	}
	b.items = append(b.items, item{inst: isa.Jal(rd, int32(v)), line: lineNo})
	return nil
}

func branchTarget(b *Builder, op isa.Op, rs1, rs2 isa.Reg, target string, lineNo int, errf func(string, ...any) error) error {
	if isIdent(target) {
		b.items = append(b.items, item{
			inst: isa.Inst{Op: op, Rs1: rs1, Rs2: rs2}, fix: fixBranch, label: target, line: lineNo,
		})
		return nil
	}
	v, err := parseImm(target)
	if err != nil {
		return errf("bad branch target %q", target)
	}
	b.items = append(b.items, item{inst: isa.Inst{Op: op, Rs1: rs1, Rs2: rs2, Imm: int32(v)}, line: lineNo})
	return nil
}

// parseMemOperand parses "offset(reg)", "(reg)", or "%lo(label)(reg)".
func parseMemOperand(s string) (off int32, base isa.Reg, fx fixupKind, label string, err error) {
	open := strings.LastIndex(s, "(")
	if open < 0 || !strings.HasSuffix(s, ")") {
		return 0, 0, fixNone, "", fmt.Errorf("bad memory operand %q", s)
	}
	regStr := s[open+1 : len(s)-1]
	base, ok := regByName(regStr)
	if !ok {
		return 0, 0, fixNone, "", fmt.Errorf("bad base register %q", regStr)
	}
	offStr := strings.TrimSpace(s[:open])
	if offStr == "" {
		return 0, base, fixNone, "", nil
	}
	if l, ok := loRef(offStr); ok {
		return 0, base, fixLo, l, nil
	}
	v, err := parseImm(offStr)
	if err != nil {
		return 0, 0, fixNone, "", fmt.Errorf("bad offset %q", offStr)
	}
	return int32(v), base, fixNone, "", nil
}

func hiRef(s string) (string, bool) {
	if strings.HasPrefix(s, "%hi(") && strings.HasSuffix(s, ")") {
		return s[4 : len(s)-1], true
	}
	return "", false
}

func loRef(s string) (string, bool) {
	if strings.HasPrefix(s, "%lo(") && strings.HasSuffix(s, ")") {
		return s[4 : len(s)-1], true
	}
	return "", false
}

func parseImm(s string) (int64, error) {
	s = strings.TrimSpace(s)
	return strconv.ParseInt(s, 0, 64)
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

func regByName(s string) (isa.Reg, bool) {
	r, ok := regNames[strings.ToLower(strings.TrimSpace(s))]
	return r, ok
}
