package asm

import (
	"fmt"
	"strings"
	"testing"

	"emsim/internal/cpu"
	"emsim/internal/isa"
)

// runOnCPU assembles and executes src, returning the core for inspection.
func runOnCPU(t *testing.T, src string) *cpu.CPU {
	t.Helper()
	prog, err := Assemble(src)
	if err != nil {
		t.Fatalf("assemble: %v", err)
	}
	c := cpu.MustNew(cpu.DefaultConfig())
	c.LoadProgram(prog.Origin, prog.Words)
	if _, err := c.Run(); err != nil {
		t.Fatalf("run: %v", err)
	}
	return c
}

func TestBuilderBasic(t *testing.T) {
	p := NewBuilder().
		I(isa.Addi(isa.T0, isa.Zero, 5)).
		I(isa.Ebreak()).
		MustAssemble()
	if len(p.Words) != 2 {
		t.Fatalf("words = %d, want 2", len(p.Words))
	}
	if p.Words[0] != isa.MustEncode(isa.Addi(isa.T0, isa.Zero, 5)) {
		t.Error("first word mismatch")
	}
	if p.Size() != 8 {
		t.Errorf("Size = %d", p.Size())
	}
}

func TestBuilderLabelsAndBranches(t *testing.T) {
	b := NewBuilder()
	b.I(isa.Addi(isa.T0, isa.Zero, 3))          // 0
	b.Label("loop")                             // 4
	b.I(isa.Addi(isa.T0, isa.T0, -1))           // 4
	b.Branch(isa.BNE, isa.T0, isa.Zero, "loop") // 8 -> offset -4
	b.I(isa.Ebreak())
	p := b.MustAssemble()

	in, err := isa.Decode(p.Words[2])
	if err != nil {
		t.Fatal(err)
	}
	if in.Op != isa.BNE || in.Imm != -4 {
		t.Errorf("branch decoded as %v (imm %d), want bne imm=-4", in.Op, in.Imm)
	}
	if p.Symbols["loop"] != 4 {
		t.Errorf("loop = %#x, want 4", p.Symbols["loop"])
	}
}

func TestBuilderJalForwardReference(t *testing.T) {
	b := NewBuilder()
	b.Jal(isa.RA, "target") // 0
	b.I(isa.Ebreak())       // 4
	b.Label("target")
	b.I(isa.Ebreak()) // 8
	p := b.MustAssemble()
	in, _ := isa.Decode(p.Words[0])
	if in.Op != isa.JAL || in.Imm != 8 {
		t.Errorf("jal = %v imm %d, want imm 8", in.Op, in.Imm)
	}
}

func TestBuilderErrors(t *testing.T) {
	if _, err := NewBuilder().Branch(isa.BNE, 0, 0, "nowhere").Assemble(); err == nil {
		t.Error("undefined label accepted")
	}
	if _, err := NewBuilder().Branch(isa.ADD, 0, 0, "x").Assemble(); err == nil {
		t.Error("non-branch op in Branch accepted")
	}
	if _, err := NewBuilder().Label("a").Label("a").Assemble(); err == nil {
		t.Error("duplicate label accepted")
	}
	if _, err := NewBuilder().Label("").Assemble(); err == nil {
		t.Error("empty label accepted")
	}
	b := NewBuilder()
	b.I(isa.Nop())
	if _, err := b.SetOrigin(0x100).Assemble(); err == nil {
		t.Error("SetOrigin after code accepted")
	}
	if _, err := NewBuilder().SetOrigin(2).Assemble(); err == nil {
		t.Error("unaligned origin accepted")
	}
}

func TestBuilderWordAddr(t *testing.T) {
	b := NewBuilder()
	b.I(isa.Ebreak())
	b.Label("table")
	b.WordAddr("table")
	p := b.MustAssemble()
	if p.Words[1] != 4 {
		t.Errorf("table pointer = %#x, want 4", p.Words[1])
	}
}

func TestBuilderLa(t *testing.T) {
	b := NewBuilder().SetOrigin(0)
	b.La(isa.T0, "data")
	b.I(isa.Lw(isa.T1, isa.T0, 0))
	b.I(isa.Ebreak())
	b.Label("data")
	b.Word(0xCAFEBABE)
	p := b.MustAssemble()

	c := cpu.MustNew(cpu.DefaultConfig())
	c.LoadProgram(p.Origin, p.Words)
	if _, err := c.Run(); err != nil {
		t.Fatal(err)
	}
	if got := c.Reg(isa.T1); got != 0xCAFEBABE {
		t.Errorf("loaded %#x via la, want 0xCAFEBABE", got)
	}
}

func TestAssembleLoopProgram(t *testing.T) {
	c := runOnCPU(t, `
		# sum integers 1..10 into t1
		li   t0, 10
		li   t1, 0
	loop:
		add  t1, t1, t0
		addi t0, t0, -1
		bnez t0, loop
		sw   t1, 1024(zero)
		ebreak
	`)
	if got := c.Reg(isa.T1); got != 55 {
		t.Errorf("sum = %d, want 55", got)
	}
	if got := c.Memory().ReadWord(1024); got != 55 {
		t.Errorf("stored sum = %d, want 55", got)
	}
}

func TestAssembleFunctionCall(t *testing.T) {
	c := runOnCPU(t, `
		li   a0, 6
		li   a1, 7
		call mul2
		mv   s0, a0
		ebreak

	mul2:           // a0 = a0 * a1
		mul  a0, a0, a1
		ret
	`)
	if got := c.Reg(isa.S0); got != 42 {
		t.Errorf("s0 = %d, want 42", got)
	}
}

func TestAssembleDataSection(t *testing.T) {
	c := runOnCPU(t, `
		la   t0, data
		lw   t1, 0(t0)
		lw   t2, 4(t0)
		lw   t3, 8(t0)
		ebreak
	data:
		.word 0x11, 34, -1
	`)
	if c.Reg(isa.T1) != 0x11 || c.Reg(isa.T2) != 34 || c.Reg(isa.T3) != 0xFFFFFFFF {
		t.Errorf("data words = %#x %#x %#x", c.Reg(isa.T1), c.Reg(isa.T2), c.Reg(isa.T3))
	}
}

func TestAssembleHiLo(t *testing.T) {
	c := runOnCPU(t, `
		lui  t0, %hi(value)
		lw   t1, %lo(value)(t0)
		addi t2, t0, %lo(value)
		ebreak
	value:
		.word 777
	`)
	if got := c.Reg(isa.T1); got != 777 {
		t.Errorf("hi/lo load = %d, want 777", got)
	}
	p := MustAssembleText("nop\nebreak")
	_ = p
	if got, want := c.Reg(isa.T2), c.Reg(isa.T0)+16-16; got == 0 && want == 0 {
		t.Log("address is zero-page; still fine")
	}
}

func TestAssemblePseudoOps(t *testing.T) {
	c := runOnCPU(t, `
		li   t0, 5
		mv   t1, t0
		not  t2, t0      # ^5
		neg  t3, t0      # -5
		seqz t4, zero    # 1
		snez t5, t0      # 1
		nop
		ebreak
	`)
	if c.Reg(isa.T1) != 5 {
		t.Error("mv failed")
	}
	if c.Reg(isa.T2) != ^uint32(5) {
		t.Errorf("not = %#x", c.Reg(isa.T2))
	}
	if int32(c.Reg(isa.T3)) != -5 {
		t.Errorf("neg = %d", int32(c.Reg(isa.T3)))
	}
	if c.Reg(isa.T4) != 1 || c.Reg(isa.T5) != 1 {
		t.Error("seqz/snez failed")
	}
}

func TestAssembleBranchAliases(t *testing.T) {
	c := runOnCPU(t, `
		li  t0, 3
		li  t1, 7
		bgt t1, t0, greater
		ebreak
	greater:
		li  s0, 1
		ble t0, t1, lesseq
		ebreak
	lesseq:
		li  s1, 2
		bgtu t1, t0, done
		ebreak
	done:
		li  s2, 3
		ebreak
	`)
	if c.Reg(isa.S0) != 1 || c.Reg(isa.S1) != 2 || c.Reg(isa.S2) != 3 {
		t.Errorf("branch aliases: s0=%d s1=%d s2=%d", c.Reg(isa.S0), c.Reg(isa.S1), c.Reg(isa.S2))
	}
}

func TestAssembleOrgDirective(t *testing.T) {
	p, err := Assemble(`
		.org 0x100
	start:
		nop
		ebreak
	`)
	if err != nil {
		t.Fatal(err)
	}
	if p.Origin != 0x100 {
		t.Errorf("origin = %#x", p.Origin)
	}
	if p.Symbols["start"] != 0x100 {
		t.Errorf("start = %#x", p.Symbols["start"])
	}
}

func TestAssembleSpaceDirective(t *testing.T) {
	p, err := Assemble(`
		ebreak
	buf:
		.space 10
	end:
		.word 1
	`)
	if err != nil {
		t.Fatal(err)
	}
	// 10 bytes round to 3 words.
	if got := p.Symbols["end"] - p.Symbols["buf"]; got != 12 {
		t.Errorf("space size = %d bytes, want 12", got)
	}
}

func TestAssembleErrors(t *testing.T) {
	cases := []struct {
		name, src string
		line      int // the line the error must name
	}{
		{"unknown mnemonic", "frobnicate t0, t1", 1},
		{"bad register", "add t0, q9, t1", 1},
		{"operand count", "add t0, t1", 1},
		{"bad immediate", "addi t0, t1, banana", 1},
		{"undefined label", "j nowhere\nebreak", 1},
		{"bad directive", ".bogus 1", 1},
		{"bad mem operand", "lw t0, t1", 1},
		{"org needs value", ".org", 1},
		{"word needs value", ".word", 1},
		{"space needs count", ".space", 1},
		{"space past cap", fmt.Sprintf(".space %d", maxImageBytes+1), 1},
		{"empty label", "  : nop", 1},
		{"branch label", "beq t0, t1, 5oops", 1},
		{"duplicate label", "a:\na:\nnop", 2},
		{"empty lo label", "lw t0, %lo()(sp)", 1},
		{"la number", "la a0, 5", 1},
		{"jump label", "j 5oops", 1},
		// A bad destination register is an error, not x0.
		{"neg bad rd", "neg bogus, t1", 1},
		{"not bad rd", "not q9, t0", 1},
		{"seqz bad rd", "seqz q9, t0", 1},
		{"snez bad rd", "snez q9, t0", 1},
		// A number that does not fit in 32 bits is an error, not its low
		// 32 bits.
		{"wide immediate", "addi t0, zero, 4294967297", 1},
		{"wide offset", "lw t0, 4294967296(sp)", 1},
		{"wide branch offset", "beq t0, t1, 4294967304", 1},
		{"wide word", ".word 0x1ffffffff", 1},
		{"wide origin", ".org 0x100000000", 1},
		{"wide li", "li t0, -2147483649", 1},
		// Encode errors of parsed instructions name their line.
		{"I-type encode", "nop\naddi t0, t1, 99999", 2},
		{"shift encode", "nop\nnop\nslli t0, t0, 32", 3},
		{"load encode", "nop\nlw t0, 5000(sp)", 2},
		{"branch encode", "x: nop\n.space 8192\nbeq t0, t1, x", 3},
	}
	for _, tc := range cases {
		_, err := Assemble(tc.src)
		if err == nil {
			t.Errorf("%s: assembled %q without error", tc.name, tc.src)
			continue
		}
		if want := fmt.Sprintf("asm: line %d: ", tc.line); !strings.HasPrefix(err.Error(), want) {
			t.Errorf("%s: error %q does not start with %q", tc.name, err, want)
		}
	}
}

// TestAssembleNumbers pins the 32-bit number rule: any number from -2³¹
// to 2³²-1 assembles as its low 32 bits.
func TestAssembleNumbers(t *testing.T) {
	cases := []struct{ src, same string }{
		{"li t0, 0xFFFFFFFF", "addi t0, zero, -1"},
		{"li t0, 4294967295", "li t0, -1"},
		{"li t0, -2147483648", "li t0, 0x80000000"},
		{".word 0xFFFFFFFF", ".word -1"},
		{"lui t0, 0xfffff", "lui t0, 1048575"},
		{"beq t0, t1, 0x10", "beq t0, t1, 16"},
	}
	for _, tc := range cases {
		p, err := Assemble(tc.src)
		if err != nil {
			t.Errorf("%q: %v", tc.src, err)
			continue
		}
		want := MustAssembleText(tc.same)
		if fmt.Sprint(p.Words) != fmt.Sprint(want.Words) {
			t.Errorf("%q = %#x, want %#x as for %q", tc.src, p.Words, want.Words, tc.same)
		}
	}
}

func TestAssembleCommentStyles(t *testing.T) {
	c := runOnCPU(t, `
		li t0, 1   # hash comment
		li t1, 2   // slash comment
		ebreak
	`)
	if c.Reg(isa.T0) != 1 || c.Reg(isa.T1) != 2 {
		t.Error("comments broke parsing")
	}
}

func TestAssembleLabelOnSameLine(t *testing.T) {
	c := runOnCPU(t, `
		li t0, 2
	loop: addi t0, t0, -1
		bnez t0, loop
		ebreak
	`)
	if c.Reg(isa.T0) != 0 {
		t.Errorf("t0 = %d", c.Reg(isa.T0))
	}
}

func TestAssembleRegisterForms(t *testing.T) {
	c := runOnCPU(t, `
		addi x5, x0, 9
		addi t1, zero, 1
		add  x7, x5, x6
		ebreak
	`)
	if got := c.Reg(isa.T2); got != 10 {
		t.Errorf("x7 = %d, want 10", got)
	}
}

func TestRoundTripThroughDisassembly(t *testing.T) {
	// Every encodable instruction printed by Inst.String must re-assemble
	// to the same word (for the subset with assembler-compatible syntax).
	insts := []isa.Inst{
		isa.Add(isa.T0, isa.T1, isa.T2),
		isa.Addi(isa.A0, isa.A1, -7),
		isa.Lw(isa.T0, isa.SP, 16),
		isa.Sw(isa.T0, isa.SP, 20),
		isa.Mul(isa.S0, isa.S1, isa.S2),
		isa.Slli(isa.T0, isa.T0, 3),
		isa.Lui(isa.T0, 0x1F),
		isa.Jal(isa.RA, 16),
		isa.Beq(isa.T0, isa.T1, 8),
	}
	for _, in := range insts {
		src := in.String() + "\n"
		p, err := Assemble(src)
		if err != nil {
			t.Errorf("re-assemble %q: %v", src, err)
			continue
		}
		if p.Words[0] != isa.MustEncode(in) {
			t.Errorf("%q: round trip %#08x != %#08x", strings.TrimSpace(src), p.Words[0], isa.MustEncode(in))
		}
	}
}

func BenchmarkAssembleLoop(b *testing.B) {
	src := `
		li   t0, 10
		li   t1, 0
	loop:
		add  t1, t1, t0
		addi t0, t0, -1
		bnez t0, loop
		ebreak
	`
	for i := 0; i < b.N; i++ {
		if _, err := Assemble(src); err != nil {
			b.Fatal(err)
		}
	}
}
