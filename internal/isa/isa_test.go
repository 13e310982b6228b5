package isa

import (
	"math/rand"
	"slices"
	"testing"
	"testing/quick"
)

func TestRegString(t *testing.T) {
	cases := map[Reg]string{
		X0: "zero", X1: "ra", X2: "sp", X5: "t0", X10: "a0", X31: "t6",
	}
	for r, want := range cases {
		if got := r.String(); got != want {
			t.Errorf("Reg(%d).String() = %q, want %q", r, got, want)
		}
	}
	if got := Reg(40).String(); got != "x40" {
		t.Errorf("out-of-range reg = %q, want x40", got)
	}
}

// TestOpPredicates pins every per-mnemonic answer for all 47 mnemonics,
// OpInvalid and an out-of-range Op: each row was read off the switches
// the ops table replaced.
func TestOpPredicates(t *testing.T) {
	tests := []struct {
		op                                  Op
		name                                string
		format                              Format
		cluster                             Cluster
		load, store, branch, jump, mul, sys bool
		writesRd, readsRs1, readsRs2        bool
	}{
		{OpInvalid, "invalid", FormatI, ClusterALU, false, false, false, false, false, false, true, true, false},
		{ADD, "add", FormatR, ClusterALU, false, false, false, false, false, false, true, true, true},
		{SUB, "sub", FormatR, ClusterALU, false, false, false, false, false, false, true, true, true},
		{SLL, "sll", FormatR, ClusterShift, false, false, false, false, false, false, true, true, true},
		{SLT, "slt", FormatR, ClusterALU, false, false, false, false, false, false, true, true, true},
		{SLTU, "sltu", FormatR, ClusterALU, false, false, false, false, false, false, true, true, true},
		{XOR, "xor", FormatR, ClusterALU, false, false, false, false, false, false, true, true, true},
		{SRL, "srl", FormatR, ClusterShift, false, false, false, false, false, false, true, true, true},
		{SRA, "sra", FormatR, ClusterShift, false, false, false, false, false, false, true, true, true},
		{OR, "or", FormatR, ClusterALU, false, false, false, false, false, false, true, true, true},
		{AND, "and", FormatR, ClusterALU, false, false, false, false, false, false, true, true, true},
		{MUL, "mul", FormatR, ClusterMulDiv, false, false, false, false, true, false, true, true, true},
		{MULH, "mulh", FormatR, ClusterMulDiv, false, false, false, false, true, false, true, true, true},
		{MULHSU, "mulhsu", FormatR, ClusterMulDiv, false, false, false, false, true, false, true, true, true},
		{MULHU, "mulhu", FormatR, ClusterMulDiv, false, false, false, false, true, false, true, true, true},
		{DIV, "div", FormatR, ClusterMulDiv, false, false, false, false, true, false, true, true, true},
		{DIVU, "divu", FormatR, ClusterMulDiv, false, false, false, false, true, false, true, true, true},
		{REM, "rem", FormatR, ClusterMulDiv, false, false, false, false, true, false, true, true, true},
		{REMU, "remu", FormatR, ClusterMulDiv, false, false, false, false, true, false, true, true, true},
		{ADDI, "addi", FormatI, ClusterALU, false, false, false, false, false, false, true, true, false},
		{SLTI, "slti", FormatI, ClusterALU, false, false, false, false, false, false, true, true, false},
		{SLTIU, "sltiu", FormatI, ClusterALU, false, false, false, false, false, false, true, true, false},
		{XORI, "xori", FormatI, ClusterALU, false, false, false, false, false, false, true, true, false},
		{ORI, "ori", FormatI, ClusterALU, false, false, false, false, false, false, true, true, false},
		{ANDI, "andi", FormatI, ClusterALU, false, false, false, false, false, false, true, true, false},
		{SLLI, "slli", FormatI, ClusterShift, false, false, false, false, false, false, true, true, false},
		{SRLI, "srli", FormatI, ClusterShift, false, false, false, false, false, false, true, true, false},
		{SRAI, "srai", FormatI, ClusterShift, false, false, false, false, false, false, true, true, false},
		{LB, "lb", FormatI, ClusterCache, true, false, false, false, false, false, true, true, false},
		{LH, "lh", FormatI, ClusterCache, true, false, false, false, false, false, true, true, false},
		{LW, "lw", FormatI, ClusterCache, true, false, false, false, false, false, true, true, false},
		{LBU, "lbu", FormatI, ClusterCache, true, false, false, false, false, false, true, true, false},
		{LHU, "lhu", FormatI, ClusterCache, true, false, false, false, false, false, true, true, false},
		{SB, "sb", FormatS, ClusterStore, false, true, false, false, false, false, false, true, true},
		{SH, "sh", FormatS, ClusterStore, false, true, false, false, false, false, false, true, true},
		{SW, "sw", FormatS, ClusterStore, false, true, false, false, false, false, false, true, true},
		{BEQ, "beq", FormatB, ClusterBranch, false, false, true, false, false, false, false, true, true},
		{BNE, "bne", FormatB, ClusterBranch, false, false, true, false, false, false, false, true, true},
		{BLT, "blt", FormatB, ClusterBranch, false, false, true, false, false, false, false, true, true},
		{BGE, "bge", FormatB, ClusterBranch, false, false, true, false, false, false, false, true, true},
		{BLTU, "bltu", FormatB, ClusterBranch, false, false, true, false, false, false, false, true, true},
		{BGEU, "bgeu", FormatB, ClusterBranch, false, false, true, false, false, false, false, true, true},
		{LUI, "lui", FormatU, ClusterALU, false, false, false, false, false, false, true, false, false},
		{AUIPC, "auipc", FormatU, ClusterALU, false, false, false, false, false, false, true, false, false},
		{JAL, "jal", FormatJ, ClusterALU, false, false, false, true, false, false, true, false, false},
		{JALR, "jalr", FormatI, ClusterALU, false, false, false, true, false, false, true, true, false},
		{ECALL, "ecall", FormatI, ClusterALU, false, false, false, false, false, true, false, false, false},
		{EBREAK, "ebreak", FormatI, ClusterALU, false, false, false, false, false, true, false, false, false},
		{FENCE, "fence", FormatI, ClusterALU, false, false, false, false, false, false, false, false, false},
		{Op(200), "op(200)", FormatI, ClusterALU, false, false, false, false, false, false, true, true, false},
	}
	if want := NumOps + 2; len(tests) != want {
		t.Fatalf("%d rows, want %d", len(tests), want)
	}
	for _, tc := range tests {
		if got := tc.op.String(); got != tc.name {
			t.Errorf("Op(%d).String() = %q, want %q", uint8(tc.op), got, tc.name)
		}
		if got := tc.op.Format(); got != tc.format {
			t.Errorf("%v.Format() = %v, want %v", tc.op, got, tc.format)
		}
		if got := StaticCluster(tc.op); got != tc.cluster {
			t.Errorf("StaticCluster(%v) = %v, want %v", tc.op, got, tc.cluster)
		}
		if tc.op.IsLoad() != tc.load {
			t.Errorf("%v.IsLoad() = %v", tc.op, tc.op.IsLoad())
		}
		if tc.op.IsStore() != tc.store {
			t.Errorf("%v.IsStore() = %v", tc.op, tc.op.IsStore())
		}
		if tc.op.IsBranch() != tc.branch {
			t.Errorf("%v.IsBranch() = %v", tc.op, tc.op.IsBranch())
		}
		if tc.op.IsJump() != tc.jump {
			t.Errorf("%v.IsJump() = %v", tc.op, tc.op.IsJump())
		}
		if tc.op.IsMulDiv() != tc.mul {
			t.Errorf("%v.IsMulDiv() = %v", tc.op, tc.op.IsMulDiv())
		}
		if tc.op.IsSystem() != tc.sys {
			t.Errorf("%v.IsSystem() = %v", tc.op, tc.op.IsSystem())
		}
		if tc.op.WritesRd() != tc.writesRd {
			t.Errorf("%v.WritesRd() = %v", tc.op, tc.op.WritesRd())
		}
		if tc.op.ReadsRs1() != tc.readsRs1 {
			t.Errorf("%v.ReadsRs1() = %v", tc.op, tc.op.ReadsRs1())
		}
		if tc.op.ReadsRs2() != tc.readsRs2 {
			t.Errorf("%v.ReadsRs2() = %v", tc.op, tc.op.ReadsRs2())
		}
	}
}

func TestEncodeKnownWords(t *testing.T) {
	// Golden encodings cross-checked against the RISC-V spec examples and
	// an independent assembler.
	cases := []struct {
		inst Inst
		want uint32
	}{
		{Nop(), 0x00000013},              // addi x0,x0,0
		{Add(X1, X2, X3), 0x003100B3},    // add ra,sp,gp
		{Sub(X5, X6, X7), 0x407302B3},    // sub t0,t1,t2
		{Addi(X10, X10, -1), 0xFFF50513}, // addi a0,a0,-1
		{Lw(X11, X2, 8), 0x00812583},     // lw a1,8(sp)
		{Sw(X11, X2, 12), 0x00B12623},    // sw a1,12(sp)
		{Beq(X1, X2, 16), 0x00208863},    // beq ra,sp,+16
		{Jal(X1, 2048), 0x001000EF},      // jal ra,+2048
		{Lui(X5, 0x12345), 0x123452B7},   // lui t0,0x12345
		{Mul(X4, X5, X6), 0x02628233},    // mul tp,t0,t1
		{Ecall(), 0x00000073},
		{Ebreak(), 0x00100073},
		{Srai(X3, X4, 7), 0x40725193}, // srai gp,tp,7
	}
	for _, tc := range cases {
		got, err := Encode(tc.inst)
		if err != nil {
			t.Fatalf("Encode(%v): %v", tc.inst, err)
		}
		if got != tc.want {
			t.Errorf("Encode(%v) = %#08x, want %#08x", tc.inst, got, tc.want)
		}
	}
}

func TestEncodeErrors(t *testing.T) {
	bad := []Inst{
		{Op: OpInvalid},
		Addi(X1, X1, 5000),     // imm out of I range
		Beq(X1, X2, 3),         // odd branch offset
		Jal(X1, 1),             // odd jump offset
		Slli(X1, X1, 40),       // shift amount > 31
		{Op: ADD, Rd: Reg(32)}, // bad register
		Jal(X1, 1<<21),         // jump offset out of range
		Sw(X1, X2, 5000),       // store offset out of range
	}
	for _, inst := range bad {
		if _, err := Encode(inst); err == nil {
			t.Errorf("Encode(%+v) unexpectedly succeeded", inst)
		}
	}
}

func TestDecodeErrors(t *testing.T) {
	bad := []uint32{
		0x00000000,           // all zeros: illegal
		0xFFFFFFFF,           // all ones: illegal
		0x0000207F,           // unknown opcode
		0x00002063 | 0x2<<12, // branch funct3=010
		0x00003003 | 0x3<<12, // load funct3=011
		0x00200073,           // SYSTEM imm=2
	}
	for _, w := range bad {
		if inst, err := Decode(w); err == nil {
			t.Errorf("Decode(%#08x) = %v, want error", w, inst)
		}
	}
}

// canonicalize maps an Inst to the information content that survives an
// encode/decode round trip (unused fields are zeroed by the decoder).
func canonicalize(i Inst) Inst {
	out := Inst{Op: i.Op}
	if i.Op.WritesRd() {
		out.Rd = i.Rd
	}
	if i.Op.ReadsRs1() {
		out.Rs1 = i.Rs1
	}
	if i.Op.ReadsRs2() {
		out.Rs2 = i.Rs2
	}
	switch i.Op.Format() {
	case FormatR:
	case FormatB, FormatJ:
		out.Imm = i.Imm &^ 1
	default:
		if !i.Op.IsSystem() && i.Op != FENCE {
			out.Imm = i.Imm
		}
	}
	return out
}

// randInst produces a random valid instruction for property testing.
func randInst(r *rand.Rand) Inst {
	ops := AllOps()
	for {
		op := ops[r.Intn(len(ops))]
		inst := Inst{
			Op:  op,
			Rd:  Reg(r.Intn(NumRegs)),
			Rs1: Reg(r.Intn(NumRegs)),
			Rs2: Reg(r.Intn(NumRegs)),
		}
		switch op {
		case SLLI, SRLI, SRAI:
			inst.Imm = int32(r.Intn(32))
		default:
			min, max := immRange(op.Format())
			if max > min {
				inst.Imm = min + r.Int31n(max-min+1)
			}
			if op.Format() == FormatB || op.Format() == FormatJ {
				inst.Imm &^= 1
			}
		}
		return inst
	}
}

func TestEncodeDecodeRoundTrip(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	f := func() bool {
		inst := randInst(r)
		word, err := Encode(inst)
		if err != nil {
			t.Logf("Encode(%v): %v", inst, err)
			return false
		}
		back, err := Decode(word)
		if err != nil {
			t.Logf("Decode(Encode(%v)=%#08x): %v", inst, word, err)
			return false
		}
		want := canonicalize(inst)
		if back != want {
			t.Logf("round trip %v -> %#08x -> %v (want %v)", inst, word, back, want)
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 5000}); err != nil {
		t.Error(err)
	}
}

func TestDecodeEncodeFixpoint(t *testing.T) {
	// Any word that decodes must re-encode to a word that decodes to the
	// same instruction (encodings may differ in don't-care bits).
	r := rand.New(rand.NewSource(2))
	hits := 0
	for i := 0; i < 200000 && hits < 2000; i++ {
		w := r.Uint32()
		inst, err := Decode(w)
		if err != nil {
			continue
		}
		hits++
		w2, err := Encode(inst)
		if err != nil {
			t.Fatalf("Encode(Decode(%#08x)=%v): %v", w, inst, err)
		}
		inst2, err := Decode(w2)
		if err != nil {
			t.Fatalf("Decode(Encode(%v)): %v", inst, err)
		}
		if inst != inst2 {
			t.Fatalf("fixpoint violated: %#08x -> %v -> %#08x -> %v", w, inst, w2, inst2)
		}
	}
	if hits == 0 {
		t.Fatal("no random words decoded; decoder may be over-strict")
	}
}

func TestLiMaterialization(t *testing.T) {
	// Li must produce a sequence that computes exactly v: emulate LUI+ADDI.
	eval := func(seq []Inst) int32 {
		var regs [NumRegs]int32
		for _, in := range seq {
			switch in.Op {
			case LUI:
				regs[in.Rd] = in.Imm << 12
			case ADDI:
				regs[in.Rd] = regs[in.Rs1] + in.Imm
			default:
				t.Fatalf("unexpected op %v in Li expansion", in.Op)
			}
		}
		return regs[T0]
	}
	values := []int32{0, 1, -1, 2047, 2048, -2048, -2049, 0x12345678,
		-0x12345678, 1 << 30, -(1 << 30), 0x7FFFFFFF, -0x80000000, 0xFFF, 0x800}
	for _, v := range values {
		seq := Li(T0, v)
		if got := eval(seq); got != v {
			t.Errorf("Li(%d) evaluates to %d", v, got)
		}
		for _, in := range seq {
			if _, err := Encode(in); err != nil {
				t.Errorf("Li(%d) produced unencodable %v: %v", v, in, err)
			}
		}
	}
}

func TestLiProperty(t *testing.T) {
	f := func(v int32) bool {
		seq := Li(T0, v)
		var acc int32
		for _, in := range seq {
			switch in.Op {
			case LUI:
				acc = in.Imm << 12
			case ADDI:
				acc += in.Imm
			}
			if _, err := Encode(in); err != nil {
				return false
			}
		}
		return acc == v
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestClusters(t *testing.T) {
	if StaticCluster(ADD) != ClusterALU {
		t.Error("ADD should be ALU")
	}
	if StaticCluster(SLLI) != ClusterShift {
		t.Error("SLLI should be Shift")
	}
	if StaticCluster(MUL) != ClusterMulDiv {
		t.Error("MUL should be MUL/DIV")
	}
	if StaticCluster(LW) != ClusterCache {
		t.Error("LW (static) should be Cache")
	}
	if DynamicCluster(LW, false) != ClusterLoad {
		t.Error("missing LW should be Load")
	}
	if DynamicCluster(LW, true) != ClusterCache {
		t.Error("hitting LW should be Cache")
	}
	if DynamicCluster(ADD, false) != ClusterALU {
		t.Error("cache outcome must not affect non-loads")
	}
	if StaticCluster(SW) != ClusterStore {
		t.Error("SW should be Store")
	}
	if StaticCluster(BNE) != ClusterBranch {
		t.Error("BNE should be Branch")
	}
	if StaticCluster(JAL) != ClusterALU {
		t.Error("JAL folds into ALU per Table I")
	}
	// core.CombinationGroup's full-ISA draw indexes these lists, so their
	// order is part of every program it generates.
	loads := []Op{LB, LH, LW, LBU, LHU}
	members := [NumClusters + 1][]Op{
		ClusterALU: {ADD, SUB, SLT, SLTU, XOR, OR, AND, ADDI, SLTI, SLTIU,
			XORI, ORI, ANDI, LUI, AUIPC, JAL, JALR},
		ClusterShift:  {SLL, SRL, SRA, SLLI, SRLI, SRAI},
		ClusterMulDiv: {MUL, MULH, MULHSU, MULHU, DIV, DIVU, REM, REMU},
		ClusterLoad:   loads,
		ClusterStore:  {SB, SH, SW},
		ClusterCache:  loads,
		ClusterBranch: {BEQ, BNE, BLT, BGE, BLTU, BGEU},
		NumClusters:   nil,
	}
	for c, want := range members {
		if got := ClusterMembers(Cluster(c)); !slices.Equal(got, want) {
			t.Errorf("ClusterMembers(%v) = %v, want %v", Cluster(c), got, want)
		}
	}
}

func TestClusterMembersCoverISA(t *testing.T) {
	seen := map[Op]bool{}
	for c := Cluster(0); c < NumClusters; c++ {
		for _, op := range ClusterMembers(c) {
			seen[op] = true
		}
	}
	for _, op := range AllOps() {
		if op.IsSystem() || op == FENCE {
			continue // system ops are outside Table I
		}
		if !seen[op] {
			t.Errorf("%v not assigned to any cluster", op)
		}
	}
}

func TestRepresentativesBelongToTheirCluster(t *testing.T) {
	reps := Representatives()
	for c, op := range reps {
		members := ClusterMembers(Cluster(c))
		found := false
		for _, m := range members {
			if m == op {
				found = true
			}
		}
		if !found {
			t.Errorf("representative %v not a member of %v", op, Cluster(c))
		}
	}
}

func TestInstString(t *testing.T) {
	cases := map[string]Inst{
		"add ra, sp, gp":  Add(X1, X2, X3),
		"addi a0, a0, -1": Addi(A0, A0, -1),
		"lw a1, 8(sp)":    Lw(A1, SP, 8),
		"sw a1, 12(sp)":   Sw(A1, SP, 12),
		"beq ra, sp, 16":  Beq(RA, SP, 16),
		"lui t0, 74565":   Lui(T0, 0x12345),
		"jal ra, 2048":    Jal(RA, 2048),
		"ecall":           Ecall(),
	}
	for want, inst := range cases {
		if got := inst.String(); got != want {
			t.Errorf("String(%+v) = %q, want %q", inst, got, want)
		}
	}
}

func TestNOPIdentity(t *testing.T) {
	if !NOP.IsNOP() {
		t.Error("NOP.IsNOP() = false")
	}
	if Add(X0, X0, X0).IsNOP() {
		t.Error("add x0,x0,x0 is not the canonical NOP")
	}
	if got := MustEncode(NOP); got != 0x13 {
		t.Errorf("encoded NOP = %#x, want 0x13", got)
	}
}

func BenchmarkEncode(b *testing.B) {
	inst := Add(X1, X2, X3)
	for i := 0; i < b.N; i++ {
		if _, err := Encode(inst); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkDecode decodes a word mix holding every R-type mnemonic and
// one word of each other opcode class, so no decode path is favoured by
// its position in a search.
func BenchmarkDecode(b *testing.B) {
	mix := []Inst{
		{Op: ADDI, Rd: X1, Rs1: X2, Imm: -7},
		{Op: SRAI, Rd: X1, Rs1: X2, Imm: 3},
		{Op: LW, Rd: X1, Rs1: X2, Imm: 8},
		{Op: SW, Rs1: X2, Rs2: X3, Imm: -4},
		{Op: BNE, Rs1: X2, Rs2: X3, Imm: 16},
		{Op: LUI, Rd: X1, Imm: 0x12345},
		{Op: AUIPC, Rd: X1, Imm: 1},
		{Op: JAL, Rd: X1, Imm: 64},
		{Op: JALR, Rd: X1, Rs1: X2},
		{Op: FENCE},
		{Op: ECALL},
	}
	for _, op := range AllOps() {
		if op.Format() == FormatR {
			mix = append(mix, Inst{Op: op, Rd: X1, Rs1: X2, Rs2: X3})
		}
	}
	words := make([]uint32, len(mix))
	for i, in := range mix {
		words[i] = MustEncode(in)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Decode(words[i%len(words)]); err != nil {
			b.Fatal(err)
		}
	}
}
