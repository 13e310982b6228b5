package device

import (
	"context"
	"math"
	"testing"

	"emsim/internal/asm"
	"emsim/internal/cpu"
	"emsim/internal/isa"
	"emsim/internal/signal"
)

func words(t testing.TB, insts ...isa.Inst) []uint32 {
	t.Helper()
	b := asm.NewBuilder()
	b.I(insts...)
	p, err := b.Assemble()
	if err != nil {
		t.Fatal(err)
	}
	return p.Words
}

// nopProgram is NOPs followed by EBREAK.
func nopProgram(t testing.TB, n int) []uint32 {
	t.Helper()
	insts := make([]isa.Inst, 0, n+1)
	for i := 0; i < n; i++ {
		insts = append(insts, isa.Nop())
	}
	insts = append(insts, isa.Ebreak())
	return words(t, insts...)
}

func TestPhysicsDeterministicPerSeed(t *testing.T) {
	p1 := newPhysics(7)
	p2 := newPhysics(7)
	p3 := newPhysics(8)
	if p1.baseAmp != p2.baseAmp {
		t.Error("same seed produced different amplitudes")
	}
	if p1.baseAmp == p3.baseAmp {
		t.Error("different seeds produced identical amplitudes")
	}
	// Design-linked couplings must be identical across boards (§V-C).
	if p1.coupling != p3.coupling {
		t.Error("couplings vary with tech seed; they are design-linked")
	}
	if p1.kernel != p3.kernel {
		t.Error("kernel varies with tech seed")
	}
}

func TestPhysicsBitWeightsSparseAndShaped(t *testing.T) {
	p := newPhysics(1)
	for s := cpu.Stage(0); s < cpu.NumStages; s++ {
		w := p.bitWeight[s]
		if len(w) != cpu.FeatureBits(s) {
			t.Fatalf("stage %v: %d weights, want %d", s, len(w), cpu.FeatureBits(s))
		}
		zero := 0
		for _, v := range w {
			if v == 0 {
				zero++
			}
			if v < 0 {
				t.Fatalf("negative bit weight %v", v)
			}
		}
		if frac := float64(zero) / float64(len(w)); frac < 0.3 || frac > 0.8 {
			t.Errorf("stage %v: %.0f%% zero weights, want sparse (~55%%)", s, 100*frac)
		}
	}
	// ALU-output bits must dominate operand bits on average (paper §III-B).
	ex := p.bitWeight[cpu.EX]
	mean := func(xs []float64) float64 {
		s := 0.0
		for _, x := range xs {
			s += x
		}
		return s / float64(len(xs))
	}
	if mean(ex[64:96]) <= 2*mean(ex[0:32]) {
		t.Errorf("ALU result weights (%g) should dominate operand weights (%g)",
			mean(ex[64:96]), mean(ex[0:32]))
	}
}

func TestDeviceDeterministicEmission(t *testing.T) {
	prog := nopProgram(t, 20)
	d1 := MustNew(DefaultOptions())
	d2 := MustNew(DefaultOptions())
	y1, err := d1.MeasureAveraged(prog, 3)
	if err != nil {
		t.Fatal(err)
	}
	y2, err := d2.MeasureAveraged(prog, 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(y1) != len(y2) {
		t.Fatal("lengths differ")
	}
	for i := range y1 {
		if y1[i] != y2[i] {
			t.Fatal("identical devices produced different averaged captures")
		}
	}
}

func TestAveragingReducesNoise(t *testing.T) {
	prog := nopProgram(t, 30)
	dev1 := MustNew(DefaultOptions())
	one, err := dev1.MeasureAveraged(prog, 1)
	if err != nil {
		t.Fatal(err)
	}
	dev2 := MustNew(DefaultOptions())
	many, err := dev2.MeasureAveraged(prog, 200)
	if err != nil {
		t.Fatal(err)
	}
	// Reference: the noise-free emission.
	ideal, err := MustNew(DefaultOptions()).emit(context.Background(), prog)
	if err != nil {
		t.Fatal(err)
	}

	e1, err := signal.RMSE(one, ideal)
	if err != nil {
		t.Fatal(err)
	}
	e200, err := signal.RMSE(many, ideal)
	if err != nil {
		t.Fatal(err)
	}
	if e200 >= e1/3 {
		t.Errorf("averaging barely helped: RMSE 1 run %v, 200 runs %v", e1, e200)
	}
}

func TestStallQuietsStalledStage(t *testing.T) {
	// A power-gated (stalled) stage must emit a small fraction of even the
	// NOP background, and far less than an active instruction (§IV).
	p := newPhysics(1)
	add := isa.Add(isa.T0, isa.T1, isa.T2)
	active := cpu.StageTrace{Op: add.Op, Inst: add, Seq: 0}
	stalled := active
	stalled.Stalled = true
	bubble := cpu.StageTrace{Bubble: true, Seq: -1}
	for s := cpu.Stage(0); s < cpu.NumStages; s++ {
		aAct := p.stageAmplitude(s, &active)
		aStall := p.stageAmplitude(s, &stalled)
		aBub := p.stageAmplitude(s, &bubble)
		if aStall >= aBub {
			t.Errorf("stage %v: stalled amplitude %v not below bubble %v", s, aStall, aBub)
		}
		if aStall >= 0.2*aAct {
			t.Errorf("stage %v: stalled amplitude %v not ≪ active %v", s, aStall, aAct)
		}
	}
	// End-to-end: with a long MUL, the frozen front-end stages contribute
	// (almost) nothing, so the cycle amplitude during the stall differs
	// from the same occupancy without the stall flags.
	var stallCycle, busyCycle cpu.Cycle
	for s := cpu.Stage(0); s < cpu.NumStages; s++ {
		stallCycle.Stages[s] = active
		busyCycle.Stages[s] = active
	}
	stallCycle.Stages[cpu.IF].Stalled = true
	stallCycle.Stages[cpu.ID].Stalled = true
	beta := [cpu.NumStages]float64{1, 1, 1, 1, 1}
	xStall := p.cycleAmplitude(&stallCycle, &beta)
	xBusy := p.cycleAmplitude(&busyCycle, &beta)
	if xStall == xBusy {
		t.Error("stall flags have no effect on the cycle amplitude")
	}
}

func TestClusterSignaturesDiffer(t *testing.T) {
	// Different clusters must produce distinguishable per-cycle waveforms
	// (otherwise Table I clustering and SAVAT are meaningless), while two
	// ALU instructions must look nearly identical.
	cfg := DefaultOptions()
	cfg.NoiseStd = 0
	spc := cfg.SamplesPerCycle

	waveFor := func(in isa.Inst) []float64 {
		d := MustNew(cfg)
		var insts []isa.Inst
		for i := 0; i < 6; i++ {
			insts = append(insts, isa.Nop())
		}
		insts = append(insts, in)
		for i := 0; i < 8; i++ {
			insts = append(insts, isa.Nop())
		}
		insts = append(insts, isa.Ebreak())
		prog := words(t, insts...)
		y, err := d.MeasureAveraged(prog, 1)
		if err != nil {
			t.Fatal(err)
		}
		tr, err := cpu.MustNew(d.opts.CPU).RunProgram(prog)
		if err != nil {
			t.Fatal(err)
		}
		// Extract the window where the instruction traverses the pipe.
		var firstCycle int
		for i := range tr {
			if tr[i].Stages[cpu.EX].Op == in.Op && !tr[i].Stages[cpu.EX].Bubble && !tr[i].Stages[cpu.EX].Stalled {
				firstCycle = i - 2
				break
			}
		}
		if firstCycle < 0 {
			firstCycle = 0
		}
		lo := firstCycle * spc
		hi := lo + 5*spc
		if hi > len(y) {
			hi = len(y)
		}
		return y[lo:hi]
	}

	add := waveFor(isa.Add(isa.Zero, isa.Zero, isa.Zero))
	xor := waveFor(isa.Xor(isa.Zero, isa.Zero, isa.Zero))
	mul := waveFor(isa.Mul(isa.Zero, isa.Zero, isa.Zero))
	st := waveFor(isa.Sw(isa.Zero, isa.Zero, 1024))

	nccAddXor, _ := signal.NCC(add, xor)
	nccAddMul, _ := signal.NCC(add[:len(mul)], mul[:len(add)])
	nccAddSt, _ := signal.NCC(add, st)
	if nccAddXor < 0.99 {
		t.Errorf("ADD vs XOR correlation %v, want ~1 (same cluster)", nccAddXor)
	}
	if nccAddMul > nccAddXor || nccAddSt > nccAddXor {
		t.Errorf("cross-cluster correlations (%v, %v) should be below in-cluster (%v)",
			nccAddMul, nccAddSt, nccAddXor)
	}
}

func TestProbeDistanceScalesAmplitude(t *testing.T) {
	prog := nopProgram(t, 20)
	near := DefaultOptions()
	near.NoiseStd = 0
	far := near
	far.Probe = ProbePosition{X: 2, Height: 3}

	yNear, err := MustNew(near).MeasureAveraged(prog, 1)
	if err != nil {
		t.Fatal(err)
	}
	yFar, err := MustNew(far).MeasureAveraged(prog, 1)
	if err != nil {
		t.Fatal(err)
	}
	if signal.Energy(yFar) >= signal.Energy(yNear)/2 {
		t.Errorf("moving the probe away did not attenuate: near %v, far %v",
			signal.Energy(yNear), signal.Energy(yFar))
	}
	// An off-center probe changes stage weighting, not just global scale.
	side := near
	side.Probe = ProbePosition{X: 0, Height: 1}
	dSide := MustNew(side)
	if dSide.beta[cpu.IF] <= dSide.beta[cpu.WB] {
		t.Errorf("probe over IF should weight IF (β=%v) above WB (β=%v)",
			dSide.beta[cpu.IF], dSide.beta[cpu.WB])
	}
}

func TestClockPPMShiftsButPreservesShape(t *testing.T) {
	prog := nopProgram(t, 40)
	a := DefaultOptions()
	a.NoiseStd = 0
	b := a
	b.ClockPPM = 200
	ya, err := MustNew(a).MeasureAveraged(prog, 1)
	if err != nil {
		t.Fatal(err)
	}
	yb, err := MustNew(b).MeasureAveraged(prog, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(ya) != len(yb) {
		t.Fatal("clock shift changed capture length")
	}
	ncc, err := signal.NCC(ya, yb)
	if err != nil {
		t.Fatal(err)
	}
	if ncc < 0.99 {
		t.Errorf("200ppm shift degraded correlation to %v (paper: no significant impact)", ncc)
	}
	identical := true
	for i := range ya {
		if ya[i] != yb[i] {
			identical = false
			break
		}
	}
	if identical {
		t.Error("clock shift had no effect at all")
	}
}

func TestBoardChangeChangesSignal(t *testing.T) {
	prog := nopProgram(t, 30)
	a := DefaultOptions()
	a.NoiseStd = 0
	b := a
	b.TechSeed = 99
	ya, _ := MustNew(a).MeasureAveraged(prog, 1)
	yb, _ := MustNew(b).MeasureAveraged(prog, 1)
	same := true
	for i := range ya {
		if math.Abs(ya[i]-yb[i]) > 1e-9 {
			same = false
			break
		}
	}
	if same {
		t.Error("different boards emitted identical signals")
	}
}

func TestDeviceOptionValidation(t *testing.T) {
	bad := DefaultOptions()
	bad.SamplesPerCycle = 2
	if _, err := New(bad); err == nil {
		t.Error("tiny sampling rate accepted")
	}
	bad = DefaultOptions()
	bad.NoiseStd = -1
	if _, err := New(bad); err == nil {
		t.Error("negative noise accepted")
	}
	bad = DefaultOptions()
	bad.CPU.MulLatency = 0
	if _, err := New(bad); err == nil {
		t.Error("invalid core configuration accepted")
	}
	if _, err := MustNew(DefaultOptions()).MeasureAveraged(nopProgram(t, 1), 0); err == nil {
		t.Error("0 runs accepted")
	}
}

func TestBuggyMulChangesEmissionOnly(t *testing.T) {
	// The defective multiplier (Figure 11) must change the EM emission in
	// the MUL's final EX cycle.
	var insts []isa.Inst
	insts = append(insts, isa.Li(isa.T0, 0x1234)...)
	insts = append(insts, isa.Li(isa.T1, 0x5678)...)
	for i := 0; i < 4; i++ {
		insts = append(insts, isa.Nop())
	}
	insts = append(insts, isa.Mul(isa.T2, isa.T0, isa.T1))
	for i := 0; i < 6; i++ {
		insts = append(insts, isa.Nop())
	}
	insts = append(insts, isa.Ebreak())
	prog := words(t, insts...)

	good := DefaultOptions()
	good.NoiseStd = 0
	bad := good
	bad.CPU.BuggyMul = true

	// Each chip's own core provides the trace its capture emits.
	capture := func(opts Options) (cpu.Trace, []float64) {
		d := MustNew(opts)
		y, err := d.MeasureAveraged(prog, 1)
		if err != nil {
			t.Fatal(err)
		}
		tr, err := cpu.MustNew(d.opts.CPU).RunProgram(prog)
		if err != nil {
			t.Fatal(err)
		}
		return tr, y
	}
	trG, yG := capture(good)
	trB, yB := capture(bad)
	if len(yG) != len(yB) {
		t.Fatal("defect changed timing")
	}
	// Find the MUL's last EX cycle and verify the signal differs there.
	spc := DefaultOptions().SamplesPerCycle
	lastEx := -1
	for i := range trG {
		if trG[i].Stages[cpu.EX].Op == isa.MUL && !trG[i].Stages[cpu.EX].Stalled {
			lastEx = i
		}
	}
	if lastEx < 0 {
		t.Fatal("MUL never in EX")
	}
	_ = trB
	seg := func(y []float64) []float64 { return y[lastEx*spc : (lastEx+1)*spc] }
	rmse, err := signal.RMSE(seg(yG), seg(yB))
	if err != nil {
		t.Fatal(err)
	}
	if rmse == 0 {
		t.Error("defect invisible in the MUL's final EX cycle")
	}
	// The defect must be localized: cycles before the MUL reaches EX are
	// bit-identical between the two chips.
	for i := 0; i < (lastEx-3)*spc; i++ {
		if yG[i] != yB[i] {
			t.Fatalf("defect visible at sample %d, before the MUL executes", i)
		}
	}
	// The stage-level EX amplitude must shrink with the fewer output
	// flips (the defective multiplier writes a much smaller product).
	var exG, exB cpu.StageTrace
	for i := range trG {
		if trG[i].Stages[cpu.EX].Op == isa.MUL && !trG[i].Stages[cpu.EX].Stalled {
			exG = trG[i].Stages[cpu.EX]
			exB = trB[i].Stages[cpu.EX]
		}
	}
	p := newPhysics(DefaultOptions().TechSeed)
	if aB, aG := p.stageAmplitude(cpu.EX, &exB), p.stageAmplitude(cpu.EX, &exG); aB >= aG {
		t.Errorf("buggy EX amplitude %v not below correct %v", aB, aG)
	}
}

func BenchmarkDeviceCapture(b *testing.B) {
	prog := nopProgram(b, 100)
	d := MustNew(DefaultOptions())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := d.MeasureAveraged(prog, 1); err != nil {
			b.Fatal(err)
		}
	}
}
