package cpu

import (
	"fmt"
	"math/rand"
	"testing"

	"emsim/internal/isa"
)

// asm encodes an instruction list into machine words, failing the test on
// encoding errors.
func asm(t testing.TB, insts ...isa.Inst) []uint32 {
	t.Helper()
	words := make([]uint32, len(insts))
	for i, in := range insts {
		w, err := isa.Encode(in)
		if err != nil {
			t.Fatalf("encode %v: %v", in, err)
		}
		words[i] = w
	}
	return words
}

func run(t testing.TB, cfg Config, insts ...isa.Inst) (*CPU, Trace) {
	t.Helper()
	c := MustNew(cfg)
	tr, err := c.RunProgram(asm(t, insts...))
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	return c, tr
}

func TestStraightLineALU(t *testing.T) {
	c, tr := run(t, DefaultConfig(),
		isa.Addi(isa.T0, isa.Zero, 5),
		isa.Addi(isa.T1, isa.Zero, 7),
		isa.Add(isa.T2, isa.T0, isa.T1),
		isa.Sub(isa.T3, isa.T1, isa.T0),
		isa.Xor(isa.T4, isa.T0, isa.T1),
		isa.Ebreak(),
	)
	if got := c.Reg(isa.T2); got != 12 {
		t.Errorf("t2 = %d, want 12", got)
	}
	if got := c.Reg(isa.T3); got != 2 {
		t.Errorf("t3 = %d, want 2", got)
	}
	if got := c.Reg(isa.T4); got != 5^7 {
		t.Errorf("t4 = %d, want %d", got, 5^7)
	}
	// 6 instructions, no stalls: fill (4) + 6 cycles.
	if len(tr) != 10 {
		t.Errorf("cycles = %d, want 10", len(tr))
	}
	st := c.Stats()
	if st.Retired != 6 {
		t.Errorf("retired = %d, want 6", st.Retired)
	}
	if st.StallCycles != 0 {
		t.Errorf("stall cycles = %d, want 0 for straight-line ALU", st.StallCycles)
	}
}

func TestForwardingBackToBack(t *testing.T) {
	c, _ := run(t, DefaultConfig(),
		isa.Addi(isa.T0, isa.Zero, 5),
		isa.Add(isa.T1, isa.T0, isa.T0), // needs T0 from previous inst
		isa.Add(isa.T2, isa.T1, isa.T0), // needs T1 immediately
		isa.Ebreak(),
	)
	if got := c.Reg(isa.T1); got != 10 {
		t.Errorf("t1 = %d, want 10 (EX->EX forwarding)", got)
	}
	if got := c.Reg(isa.T2); got != 15 {
		t.Errorf("t2 = %d, want 15", got)
	}
	if st := c.Stats(); st.StallCycles != 0 {
		t.Errorf("forwarded ALU chain stalled %d cycles", st.StallCycles)
	}
}

func TestNoForwardingStillCorrect(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Forwarding = false
	c, _ := run(t, cfg,
		isa.Addi(isa.T0, isa.Zero, 5),
		isa.Add(isa.T1, isa.T0, isa.T0),
		isa.Add(isa.T2, isa.T1, isa.T0),
		isa.Ebreak(),
	)
	if got := c.Reg(isa.T2); got != 15 {
		t.Errorf("t2 = %d, want 15 without forwarding", got)
	}
	if st := c.Stats(); st.StallCycles == 0 {
		t.Error("expected stalls with forwarding disabled")
	}
}

func TestForwardingReducesCycles(t *testing.T) {
	prog := []isa.Inst{
		isa.Addi(isa.T0, isa.Zero, 1),
		isa.Add(isa.T1, isa.T0, isa.T0),
		isa.Add(isa.T2, isa.T1, isa.T1),
		isa.Add(isa.T3, isa.T2, isa.T2),
		isa.Ebreak(),
	}
	_, trFwd := run(t, DefaultConfig(), prog...)
	cfg := DefaultConfig()
	cfg.Forwarding = false
	cNo, trNo := run(t, cfg, prog...)
	if len(trNo) <= len(trFwd) {
		t.Errorf("no-forwarding (%d cycles) should be slower than forwarding (%d)", len(trNo), len(trFwd))
	}
	if got := cNo.Reg(isa.T3); got != 8 {
		t.Errorf("t3 = %d, want 8", got)
	}
}

func TestStoreLoadRoundTrip(t *testing.T) {
	c, _ := run(t, DefaultConfig(),
		isa.Addi(isa.T0, isa.Zero, 1234),
		isa.Sw(isa.T0, isa.Zero, 1024),
		isa.Lw(isa.T1, isa.Zero, 1024),
		isa.Ebreak(),
	)
	if got := c.Reg(isa.T1); got != 1234 {
		t.Errorf("loaded %d, want 1234", got)
	}
}

func TestSubWordAccess(t *testing.T) {
	c, _ := run(t, DefaultConfig(),
		append(append(append(isa.Li(isa.T0, -2), // 0xFFFFFFFE
			isa.Sw(isa.T0, isa.Zero, 1024),
			isa.Lb(isa.T1, isa.Zero, 1024),   // sign-extended byte
			isa.Lbu(isa.T2, isa.Zero, 1024),  // zero-extended
			isa.Lh(isa.T3, isa.Zero, 1024),   // sign-extended half
			isa.Lhu(isa.T4, isa.Zero, 1024)), // zero-extended half
			isa.Li(isa.T5, 0x1234)...),
			isa.Sh(isa.T5, isa.Zero, 1032),
			isa.Lhu(isa.T6, isa.Zero, 1032),
			isa.Ebreak(),
		)...)
	if got := int32(c.Reg(isa.T1)); got != -2 {
		t.Errorf("lb = %d, want -2", got)
	}
	if got := c.Reg(isa.T2); got != 0xFE {
		t.Errorf("lbu = %#x, want 0xFE", got)
	}
	if got := int32(c.Reg(isa.T3)); got != -2 {
		t.Errorf("lh = %d, want -2", got)
	}
	if got := c.Reg(isa.T4); got != 0xFFFE {
		t.Errorf("lhu = %#x, want 0xFFFE", got)
	}
	if got := c.Reg(isa.T6); got != 0x1234 {
		t.Errorf("sh/lhu = %#x, want 0x1234", got)
	}
}

func TestLoadUseHazardStalls(t *testing.T) {
	c, _ := run(t, DefaultConfig(),
		isa.Addi(isa.T0, isa.Zero, 99),
		isa.Sw(isa.T0, isa.Zero, 1024),
		isa.Lw(isa.T1, isa.Zero, 1024),
		isa.Add(isa.T2, isa.T1, isa.T1), // load-use
		isa.Ebreak(),
	)
	if got := c.Reg(isa.T2); got != 198 {
		t.Errorf("t2 = %d, want 198", got)
	}
	if st := c.Stats(); st.StallCycles == 0 {
		t.Error("load-use dependency should stall")
	}
}

// memStallCyclesFor counts the cycles the instruction with sequence seq
// spends frozen in MEM.
func memStallCyclesFor(tr Trace, seq int) int {
	n := 0
	for i := range tr {
		st := &tr[i].Stages[MEM]
		if st.Seq == seq && st.Stalled {
			n++
		}
	}
	return n
}

func TestCacheMissThenHitLatency(t *testing.T) {
	// Two loads to the same line: first misses (3 extra stall cycles),
	// second hits (1 extra stall cycle). §II-A / Figure 6.
	c, tr := run(t, DefaultConfig(),
		isa.Lw(isa.T0, isa.Zero, 1024), // seq 0: miss
		isa.Nop(), isa.Nop(), isa.Nop(), isa.Nop(),
		isa.Lw(isa.T1, isa.Zero, 1028), // seq 5: same line, hit
		isa.Ebreak(),
	)
	if got := memStallCyclesFor(tr, 0); got != 3 {
		t.Errorf("miss load stalled %d extra cycles in MEM, want 3", got)
	}
	if got := memStallCyclesFor(tr, 5); got != 1 {
		t.Errorf("hit load stalled %d extra cycles in MEM, want 1", got)
	}
	st := c.Stats()
	if st.CacheMisses != 1 || st.CacheHits != 1 {
		t.Errorf("cache stats = %d hits / %d misses, want 1/1", st.CacheHits, st.CacheMisses)
	}
	// The miss load must report ClusterLoad, the hit load ClusterCache.
	var missCl, hitCl isa.Cluster
	for i := range tr {
		st := &tr[i].Stages[MEM]
		if st.CacheAccess && !st.Stalled {
			if st.Seq == 0 {
				missCl = st.Cluster()
			}
			if st.Seq == 5 {
				hitCl = st.Cluster()
			}
		}
	}
	if missCl != isa.ClusterLoad {
		t.Errorf("miss load cluster = %v, want Load", missCl)
	}
	if hitCl != isa.ClusterCache {
		t.Errorf("hit load cluster = %v, want Cache", hitCl)
	}
}

func TestMulLatencyOccupiesEX(t *testing.T) {
	cfg := DefaultConfig()
	cfg.MulLatency = 3
	c, tr := run(t, cfg,
		isa.Addi(isa.T0, isa.Zero, 6),
		isa.Addi(isa.T1, isa.Zero, 7),
		isa.Mul(isa.T2, isa.T0, isa.T1), // seq 2
		isa.Ebreak(),
	)
	if got := c.Reg(isa.T2); got != 42 {
		t.Errorf("mul = %d, want 42", got)
	}
	exCycles := 0
	for i := range tr {
		if tr[i].Stages[EX].Seq == 2 && !tr[i].Stages[EX].Stalled {
			exCycles++
		}
	}
	if exCycles != 3 {
		t.Errorf("MUL spent %d active cycles in EX, want 3", exCycles)
	}
	if st := c.Stats(); st.StallCycles < 2 {
		t.Errorf("MUL should freeze the front end; stalls = %d", st.StallCycles)
	}
}

func TestDivSemantics(t *testing.T) {
	build := func() []isa.Inst {
		var p []isa.Inst
		p = append(p, isa.Li(isa.T0, -7)...)
		p = append(p, isa.Addi(isa.T1, isa.Zero, 2))
		p = append(p,
			isa.Div(isa.T2, isa.T0, isa.T1),   // -7/2 = -3
			isa.Rem(isa.T3, isa.T0, isa.T1),   // -7%2 = -1
			isa.Div(isa.T4, isa.T0, isa.Zero), // div by zero = -1
			isa.Rem(isa.T5, isa.T0, isa.Zero), // rem by zero = dividend
			isa.Ebreak(),
		)
		return p
	}
	c, _ := run(t, DefaultConfig(), build()...)
	if got := int32(c.Reg(isa.T2)); got != -3 {
		t.Errorf("div = %d, want -3", got)
	}
	if got := int32(c.Reg(isa.T3)); got != -1 {
		t.Errorf("rem = %d, want -1", got)
	}
	if got := c.Reg(isa.T4); got != 0xFFFFFFFF {
		t.Errorf("div/0 = %#x, want all ones", got)
	}
	if got := int32(c.Reg(isa.T5)); got != -7 {
		t.Errorf("rem/0 = %d, want dividend", got)
	}
}

func TestBranchLoopArchitecture(t *testing.T) {
	// Sum 1..10 with a backward branch.
	// t0 = counter, t1 = sum, t2 = limit
	c, _ := run(t, DefaultConfig(),
		isa.Addi(isa.T0, isa.Zero, 1),
		isa.Addi(isa.T1, isa.Zero, 0),
		isa.Addi(isa.T2, isa.Zero, 10),
		// loop:
		isa.Add(isa.T1, isa.T1, isa.T0),
		isa.Addi(isa.T0, isa.T0, 1),
		isa.Bge(isa.T2, isa.T0, -8), // while t2 >= t0 goto loop
		isa.Ebreak(),
	)
	if got := c.Reg(isa.T1); got != 55 {
		t.Errorf("sum = %d, want 55", got)
	}
}

func TestBranchPredictorLearnsLoop(t *testing.T) {
	// A 100-iteration loop: the 2-level predictor should mispredict far
	// fewer than 100 times once warmed up.
	c, _ := run(t, DefaultConfig(),
		isa.Addi(isa.T0, isa.Zero, 100),
		// loop:
		isa.Addi(isa.T0, isa.T0, -1),
		isa.Bne(isa.T0, isa.Zero, -4),
		isa.Ebreak(),
	)
	st := c.Stats()
	if st.Mispredicts > 15 {
		t.Errorf("mispredicts = %d on a 100-iteration loop, want <= 15", st.Mispredicts)
	}
	if st.Flushes != int(st.Mispredicts) {
		t.Errorf("flushes (%d) != mispredicts (%d)", st.Flushes, st.Mispredicts)
	}
}

func TestMispredictionFlushesTwoSlots(t *testing.T) {
	// An always-taken branch, first encounter: the not-taken-predicted
	// branch must flush and the skipped instruction must not execute.
	c, tr := run(t, DefaultConfig(),
		isa.Addi(isa.T0, isa.Zero, 1),
		isa.Beq(isa.Zero, isa.Zero, 12), // always taken, skips 2 insts
		isa.Addi(isa.T1, isa.Zero, 111), // wrong path
		isa.Addi(isa.T2, isa.Zero, 222), // wrong path
		isa.Addi(isa.T3, isa.Zero, 7),   // branch target
		isa.Ebreak(),
	)
	if c.Reg(isa.T1) != 0 || c.Reg(isa.T2) != 0 {
		t.Errorf("wrong-path instructions executed: t1=%d t2=%d", c.Reg(isa.T1), c.Reg(isa.T2))
	}
	if got := c.Reg(isa.T3); got != 7 {
		t.Errorf("t3 = %d, want 7", got)
	}
	flushCycles := 0
	for i := range tr {
		if tr[i].MispredictFlush {
			flushCycles++
		}
	}
	if flushCycles != 1 {
		t.Errorf("flush cycles = %d, want 1", flushCycles)
	}
	// The two flushed slots travel as bubbles: find them in EX after the
	// flush cycle.
	if st := c.Stats(); st.Bubbles < 2 {
		t.Errorf("bubbles = %d, want >= 2 after flush", st.Bubbles)
	}
}

func TestJALAndJALR(t *testing.T) {
	// call: jal ra, +12 (to "func"); after return t1 must be set.
	c, _ := run(t, DefaultConfig(),
		isa.Jal(isa.RA, 12),            // 0: call func at 12
		isa.Addi(isa.T1, isa.Zero, 42), // 4: executed after return
		isa.Ebreak(),                   // 8
		isa.Addi(isa.T0, isa.Zero, 9),  // 12: func body
		isa.Jalr(isa.Zero, isa.RA, 0),  // 16: return
	)
	if got := c.Reg(isa.T0); got != 9 {
		t.Errorf("t0 = %d, want 9 (function body ran)", got)
	}
	if got := c.Reg(isa.T1); got != 42 {
		t.Errorf("t1 = %d, want 42 (returned to call site+4)", got)
	}
	if got := c.Reg(isa.RA); got != 4 {
		t.Errorf("ra = %d, want 4", got)
	}
}

func TestBuggyMulDefect(t *testing.T) {
	prog := []isa.Inst{}
	prog = append(prog, isa.Li(isa.T0, 0x1234)...)
	prog = append(prog, isa.Li(isa.T1, 0x0507)...)
	prog = append(prog, isa.Mul(isa.T2, isa.T0, isa.T1), isa.Ebreak())

	good, _ := run(t, DefaultConfig(), prog...)
	cfg := DefaultConfig()
	cfg.BuggyMul = true
	bad, _ := run(t, cfg, prog...)

	if got := good.Reg(isa.T2); got != 0x1234*0x0507 {
		t.Errorf("correct mul = %#x", got)
	}
	if got := bad.Reg(isa.T2); got != (0x34 * 0x07) {
		t.Errorf("buggy mul = %#x, want low-byte product %#x", got, 0x34*0x07)
	}
}

func TestTraceStageProgression(t *testing.T) {
	// Each instruction of a straight-line program must appear in IF, ID,
	// EX, MEM, WB on five consecutive cycles.
	_, tr := run(t, DefaultConfig(),
		isa.Addi(isa.T0, isa.Zero, 1),
		isa.Addi(isa.T1, isa.Zero, 2),
		isa.Addi(isa.T2, isa.Zero, 3),
		isa.Ebreak(),
	)
	for seq := 0; seq < 4; seq++ {
		for s := IF; s <= WB; s++ {
			cycle := seq + int(s)
			if cycle >= len(tr) {
				t.Fatalf("trace too short: %d cycles", len(tr))
			}
			got := tr[cycle].Stages[s]
			if got.Seq != seq {
				t.Errorf("cycle %d stage %v: seq = %d, want %d", cycle, s, got.Seq, seq)
			}
		}
	}
}

func TestTraceStalledStagesHaveNoFlips(t *testing.T) {
	_, tr := run(t, DefaultConfig(),
		isa.Addi(isa.T0, isa.Zero, 3),
		isa.Addi(isa.T1, isa.Zero, 4),
		isa.Mul(isa.T2, isa.T0, isa.T1),
		isa.Lw(isa.T3, isa.Zero, 1024),
		isa.Ebreak(),
	)
	for i := range tr {
		for s := Stage(0); s < NumStages; s++ {
			st := &tr[i].Stages[s]
			if st.Stalled && st.FlipCount() != 0 {
				t.Errorf("cycle %d stage %v stalled but has %d flips", i, s, st.FlipCount())
			}
		}
	}
}

func TestTraceWBSeqMonotone(t *testing.T) {
	_, tr := run(t, DefaultConfig(),
		isa.Addi(isa.T0, isa.Zero, 100),
		isa.Addi(isa.T0, isa.T0, -1),
		isa.Bne(isa.T0, isa.Zero, -4),
		isa.Lw(isa.T1, isa.Zero, 2000),
		isa.Mul(isa.T2, isa.T0, isa.T1),
		isa.Ebreak(),
	)
	last := -1
	for i := range tr {
		st := &tr[i].Stages[WB]
		if st.Bubble {
			continue
		}
		if st.Seq <= last {
			t.Fatalf("WB sequence not monotone: %d after %d (cycle %d)", st.Seq, last, i)
		}
		last = st.Seq
	}
}

func TestStepAfterHaltErrors(t *testing.T) {
	c, _ := run(t, DefaultConfig(), isa.Ebreak())
	if _, err := c.Step(); err == nil {
		t.Error("Step after halt should error")
	}
}

func TestRunExceedsMaxCycles(t *testing.T) {
	cfg := DefaultConfig()
	cfg.MaxCycles = 50
	c := MustNew(cfg)
	// Infinite loop: jal x0, 0 (jump to self).
	if _, err := c.RunProgram(asm(t, isa.Jal(isa.Zero, 0))); err == nil {
		t.Error("expected MaxCycles error for infinite loop")
	}
}

func TestConfigValidation(t *testing.T) {
	bad := DefaultConfig()
	bad.MulLatency = 0
	if _, err := New(bad); err == nil {
		t.Error("MulLatency=0 accepted")
	}
	bad = DefaultConfig()
	bad.MaxCycles = 0
	if _, err := New(bad); err == nil {
		t.Error("MaxCycles=0 accepted")
	}
	bad = DefaultConfig()
	bad.Cache.SizeBytes = 100
	if _, err := New(bad); err == nil {
		t.Error("invalid cache accepted")
	}
}

// randProgram builds a random but halting program exercising ALU ops,
// loads, stores, shifts, multiplies and short forward branches. Memory
// operations are confined to [1024, 2047] so they never clobber code.
func randProgram(r *rand.Rand, n int) []isa.Inst {
	regs := []isa.Reg{isa.T0, isa.T1, isa.T2, isa.T3, isa.T4, isa.S0, isa.S1, isa.A0, isa.A1}
	reg := func() isa.Reg { return regs[r.Intn(len(regs))] }
	var p []isa.Inst
	// Seed registers with immediates.
	for _, rg := range regs {
		p = append(p, isa.Addi(rg, isa.Zero, int32(r.Intn(4096)-2048)))
	}
	aluR := []isa.Op{isa.ADD, isa.SUB, isa.XOR, isa.OR, isa.AND, isa.SLL, isa.SRL,
		isa.SRA, isa.SLT, isa.SLTU, isa.MUL, isa.MULH, isa.MULHU, isa.DIV, isa.DIVU, isa.REM, isa.REMU}
	for len(p) < n {
		switch r.Intn(10) {
		case 0, 1, 2, 3: // R-type ALU
			op := aluR[r.Intn(len(aluR))]
			p = append(p, isa.Inst{Op: op, Rd: reg(), Rs1: reg(), Rs2: reg()})
		case 4, 5: // I-type ALU
			p = append(p, isa.Addi(reg(), reg(), int32(r.Intn(4096)-2048)))
		case 6: // store to the safe window
			off := int32(1024 + 4*r.Intn(256))
			p = append(p, isa.Sw(reg(), isa.Zero, off))
		case 7: // load from the safe window
			off := int32(1024 + 4*r.Intn(256))
			p = append(p, isa.Lw(reg(), isa.Zero, off))
		case 8: // shift immediate
			p = append(p, isa.Slli(reg(), reg(), int32(r.Intn(32))))
		case 9: // short forward branch skipping one instruction
			ops := []isa.Op{isa.BEQ, isa.BNE, isa.BLT, isa.BGE, isa.BLTU, isa.BGEU}
			p = append(p, isa.Inst{Op: ops[r.Intn(len(ops))], Rs1: reg(), Rs2: reg(), Imm: 8})
			p = append(p, isa.Addi(reg(), reg(), 1)) // possibly skipped
		}
	}
	return append(p, isa.Ebreak())
}

// TestPipelineMatchesISS is the architectural-equivalence property test:
// on random programs the pipelined core and the functional reference end
// with identical register files and data memory.
func TestPipelineMatchesISS(t *testing.T) {
	r := rand.New(rand.NewSource(42))
	for trial := 0; trial < 30; trial++ {
		prog := randProgram(r, 120)
		words := asm(t, prog...)

		c := MustNew(DefaultConfig())
		if _, err := c.RunProgram(words); err != nil {
			t.Fatalf("trial %d: pipeline: %v", trial, err)
		}
		ref := NewISS()
		if err := ref.RunProgram(words); err != nil {
			t.Fatalf("trial %d: iss: %v", trial, err)
		}
		requireMatchesISS(t, fmt.Sprintf("trial %d", trial), c, ref)
	}
}

// requireMatchesISS holds a finished pipeline run to the ISS's run of
// the same program: equal registers, equal data memory over [1024, 2048)
// (randProgram's store window), one retirement per executed instruction,
// and every cycle retiring either an instruction or a bubble.
func requireMatchesISS(t *testing.T, name string, c *CPU, ref *ISS) {
	t.Helper()
	for rg := isa.Reg(0); rg < isa.NumRegs; rg++ {
		if c.Reg(rg) != ref.Regs[rg] {
			t.Fatalf("%s: reg %v mismatch: pipeline %#x, iss %#x", name, rg, c.Reg(rg), ref.Regs[rg])
		}
	}
	for addr := uint32(1024); addr < 2048; addr += 4 {
		if got, want := c.Memory().ReadWord(addr), ref.Mem.ReadWord(addr); got != want {
			t.Fatalf("%s: mem[%#x] mismatch: pipeline %#x, iss %#x", name, addr, got, want)
		}
	}
	st := c.Stats()
	if st.Retired != ref.Executed() {
		t.Fatalf("%s: pipeline retired %d instructions, iss executed %d", name, st.Retired, ref.Executed())
	}
	if st.Cycles != st.Retired+st.Bubbles {
		t.Fatalf("%s: %d cycles, want %d retired + %d bubbles", name, st.Cycles, st.Retired, st.Bubbles)
	}
}

// TestPipelineMatchesISSAllConfigs repeats the equivalence check across
// microarchitectural variations: timing knobs must never change
// architecture.
func TestPipelineMatchesISSAllConfigs(t *testing.T) {
	configs := []func(*Config){
		func(c *Config) { c.Forwarding = false },
		func(c *Config) { c.Predictor = PredictNotTaken },
		func(c *Config) { c.Predictor = PredictGShare },
		func(c *Config) { c.Predictor = PredictBimodal },
		func(c *Config) { c.MulLatency = 8; c.DivLatency = 16 },
		func(c *Config) { c.Cache.HitLatency = 0; c.Cache.MissPenalty = 10 },
		func(c *Config) { c.Cache.SizeBytes = 256; c.Cache.LineBytes = 16; c.Cache.Ways = 1 },
	}
	r := rand.New(rand.NewSource(7))
	for ci, mod := range configs {
		prog := randProgram(r, 100)
		words := asm(t, prog...)
		cfg := DefaultConfig()
		mod(&cfg)
		c := MustNew(cfg)
		if _, err := c.RunProgram(words); err != nil {
			t.Fatalf("config %d: pipeline: %v", ci, err)
		}
		ref := NewISS()
		if err := ref.RunProgram(words); err != nil {
			t.Fatalf("config %d: iss: %v", ci, err)
		}
		requireMatchesISS(t, fmt.Sprintf("config %d", ci), c, ref)
	}
}

func TestStatsIPC(t *testing.T) {
	c, tr := run(t, DefaultConfig(),
		isa.Addi(isa.T0, isa.Zero, 1),
		isa.Addi(isa.T1, isa.Zero, 2),
		isa.Ebreak(),
	)
	st := c.Stats()
	if st.Cycles != len(tr) {
		t.Errorf("stats cycles %d != trace length %d", st.Cycles, len(tr))
	}
	if ipc := st.IPC(); ipc <= 0 || ipc > 1 {
		t.Errorf("IPC = %f out of (0,1]", ipc)
	}
	if (Stats{}).IPC() != 0 {
		t.Error("zero stats IPC should be 0")
	}
}

func TestResetCoreKeepsMemory(t *testing.T) {
	c := MustNew(DefaultConfig())
	c.Memory().WriteWord(0x1000, 77)
	c.SetReg(isa.T0, 5)
	c.ResetCore()
	if c.Reg(isa.T0) != 0 {
		t.Error("register survived ResetCore")
	}
	if c.Memory().ReadWord(0x1000) != 77 {
		t.Error("memory did not survive ResetCore")
	}
	c.Reset()
	if c.Memory().ReadWord(0x1000) != 0 {
		t.Error("memory survived full Reset")
	}
}

func TestSetRegZeroIgnored(t *testing.T) {
	c := MustNew(DefaultConfig())
	c.SetReg(isa.Zero, 99)
	if c.Reg(isa.Zero) != 0 {
		t.Error("x0 must stay zero")
	}
}

func TestTraceHelpers(t *testing.T) {
	c, tr := run(t, DefaultConfig(),
		isa.Lw(isa.T0, isa.Zero, 1024),
		isa.Ebreak(),
	)
	st := c.Stats()
	if st.Cycles != len(tr) {
		t.Errorf("Stats().Cycles = %d, trace has %d cycles", st.Cycles, len(tr))
	}
	if st.StallCycles == 0 {
		t.Error("miss load should produce stall cycles")
	}
	stalled := 0
	for i := range tr {
		if tr[i].AnyStall {
			stalled++
		}
	}
	if st.StallCycles != stalled {
		t.Errorf("Stats().StallCycles = %d, trace has %d stalled cycles", st.StallCycles, stalled)
	}
	if TotalFeatureBits() != 32*(2+3+3+2+2) {
		t.Errorf("TotalFeatureBits = %d", TotalFeatureBits())
	}
	for s := Stage(0); s < NumStages; s++ {
		if FeatureBits(s) != 32*LatchWords(s) {
			t.Errorf("FeatureBits(%v) inconsistent", s)
		}
	}
	if IF.String() != "IF" || WB.String() != "WB" || Stage(9).String() != "??" {
		t.Error("Stage.String broken")
	}
}

func BenchmarkPipelineStep(b *testing.B) {
	// Endless loop (the counter reloads when it drains) so Step can be
	// called b.N times regardless of N.
	prog := []isa.Inst{
		isa.Addi(isa.T0, isa.Zero, 2000),
		isa.Addi(isa.T0, isa.T0, -1),
		isa.Bne(isa.T0, isa.Zero, -4),
		isa.Jal(isa.Zero, -12),
	}
	cfg := DefaultConfig()
	c := MustNew(cfg)
	words := asm(b, prog...)
	c.LoadProgram(0, words)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := c.Step(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkPipelineRunLoop(b *testing.B) {
	prog := []isa.Inst{
		isa.Addi(isa.T0, isa.Zero, 1000),
		isa.Addi(isa.T0, isa.T0, -1),
		isa.Bne(isa.T0, isa.Zero, -4),
		isa.Ebreak(),
	}
	c := MustNew(DefaultConfig())
	words := asm(b, prog...)
	for i := 0; i < b.N; i++ {
		if _, err := c.RunProgram(words); err != nil {
			b.Fatal(err)
		}
	}
}
