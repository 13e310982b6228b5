package core

import (
	"bytes"
	"math"
	"math/rand"
	"strings"
	"sync"
	"testing"
	"testing/quick"

	"emsim/internal/asm"
	"emsim/internal/cpu"
	"emsim/internal/device"
	"emsim/internal/isa"
	"emsim/internal/signal"
)

// sharedModel trains one model per test binary (training takes seconds).
var (
	trainOnce  sync.Once
	trainedM   *Model
	trainedDev *device.Device
	trainedErr error
)

func testModel(t *testing.T) (*Model, *device.Device) {
	t.Helper()
	trainOnce.Do(func() {
		trainedDev = device.MustNew(device.DefaultOptions())
		trainedM, trainedErr = Train(trainedDev, TrainOptions{
			Runs:                10,
			InstancesPerCluster: 30,
			MixedLength:         400,
		})
	})
	if trainedErr != nil {
		t.Fatalf("training failed: %v", trainedErr)
	}
	return trainedM, trainedDev
}

func TestFitKernelRecoversDeviceKernel(t *testing.T) {
	dev := device.MustNew(device.DefaultOptions())
	y, err := dev.MeasureAveraged(allNOPProgram(64), 40)
	if err != nil {
		t.Fatal(err)
	}
	steady, err := steadyRegion(y, dev.SamplesPerCycle(), 8)
	if err != nil {
		t.Fatal(err)
	}
	k, score, err := FitKernel(steady, dev.SamplesPerCycle(), signal.KernelSinExp)
	if err != nil {
		t.Fatal(err)
	}
	// Hidden truth: θ = 2.5, T0 = 0.25 (internal/device/physics.go).
	if math.Abs(k.Theta-2.5) > 0.6 {
		t.Errorf("fitted theta = %v, want ≈ 2.5", k.Theta)
	}
	if math.Abs(k.Period-0.25) > 0.04 {
		t.Errorf("fitted period = %v, want ≈ 0.25", k.Period)
	}
	if score < 0.98 {
		t.Errorf("fit score %v, want >= 0.98", score)
	}
}

func TestFitKernelFamilies(t *testing.T) {
	dev := device.MustNew(device.DefaultOptions())
	y, err := dev.MeasureAveraged(allNOPProgram(64), 40)
	if err != nil {
		t.Fatal(err)
	}
	steady, _ := steadyRegion(y, dev.SamplesPerCycle(), 8)
	sinexp, sSin, err := FitKernel(steady, dev.SamplesPerCycle(), signal.KernelSinExp)
	if err != nil {
		t.Fatal(err)
	}
	_, sExp, err := FitKernel(steady, dev.SamplesPerCycle(), signal.KernelExp)
	if err != nil {
		t.Fatal(err)
	}
	rect, _, err := FitKernel(steady, dev.SamplesPerCycle(), signal.KernelRect)
	if err != nil {
		t.Fatal(err)
	}
	// Figure 1's ordering: the damped sinusoid explains the waveform best.
	if sSin <= sExp {
		t.Errorf("sin-exp score %v should beat exp score %v", sSin, sExp)
	}
	if rect.Kind != signal.KernelRect || sinexp.Kind != signal.KernelSinExp {
		t.Error("kernel kinds mangled")
	}
}

func TestFitKernelErrors(t *testing.T) {
	if _, _, err := FitKernel(make([]float64, 8), 1, signal.KernelSinExp); err == nil {
		t.Error("spc=1 accepted")
	}
	if _, _, err := FitKernel(make([]float64, 8), 16, signal.KernelSinExp); err == nil {
		t.Error("too-short signal accepted")
	}
	if _, _, err := FitKernel(make([]float64, 1024), 16, signal.KernelKind(9)); err == nil {
		t.Error("unknown kind accepted")
	}
}

func TestExtractAmplitudesInvertsReconstruct(t *testing.T) {
	k := signal.Kernel{Kind: signal.KernelSinExp, Theta: 2.5, Period: 0.25, SupportCycles: 3}
	spc := 16
	r := rand.New(rand.NewSource(4))
	f := func() bool {
		n := 5 + r.Intn(40)
		x := make([]float64, n)
		for i := range x {
			x[i] = r.NormFloat64() * 3
		}
		y := signal.MustReconstruct(x, spc, k)
		back, err := ExtractAmplitudes(y, spc, k)
		if err != nil {
			return false
		}
		for i := range x {
			if math.Abs(back[i]-x[i]) > 1e-6 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func TestExtractAmplitudesErrors(t *testing.T) {
	k := signal.Kernel{Kind: signal.KernelSinExp, Theta: 2.5, Period: 0.25, SupportCycles: 3}
	if _, err := ExtractAmplitudes(make([]float64, 3), 16, k); err == nil {
		t.Error("sub-cycle signal accepted")
	}
	bad := signal.Kernel{Kind: signal.KernelExp} // Theta unset
	if _, err := ExtractAmplitudes(make([]float64, 64), 16, bad); err == nil {
		t.Error("bad kernel accepted")
	}
}

func TestTrainedModelHeadlineAccuracy(t *testing.T) {
	m, dev := testModel(t)
	rng := rand.New(rand.NewSource(1234))
	total := 0.0
	const progs = 3
	for i := 0; i < progs; i++ {
		words, err := MixedProgram(rng, 350)
		if err != nil {
			t.Fatal(err)
		}
		cmp, err := m.CompareOnDevice(dev, words, 10)
		if err != nil {
			t.Fatal(err)
		}
		if cmp.Accuracy < 0.85 {
			t.Errorf("program %d: accuracy %.3f below 0.85", i, cmp.Accuracy)
		}
		total += cmp.Accuracy
	}
	if mean := total / progs; mean < 0.90 {
		t.Errorf("mean accuracy %.3f, want >= 0.90 (paper: 0.941)", mean)
	}
}

func TestActivityPruningMatchesPaper(t *testing.T) {
	m, _ := testModel(t)
	totalBits, selected := 0, 0
	for s := cpu.Stage(0); s < cpu.NumStages; s++ {
		totalBits += m.Activity[s].Candidates
		selected += len(m.Activity[s].Selected)
		if m.Activity[s].Candidates != cpu.FeatureBits(s) {
			t.Errorf("stage %v candidates = %d", s, m.Activity[s].Candidates)
		}
	}
	pruned := 1 - float64(selected)/float64(totalBits)
	if pruned < 0.65 {
		t.Errorf("stepwise pruned only %.0f%% of T, paper reports >65%%", 100*pruned)
	}
	if selected == 0 {
		t.Error("no transition bits selected at all")
	}
}

func TestAblationsDegradeAccuracy(t *testing.T) {
	m, dev := testModel(t)
	rng := rand.New(rand.NewSource(77))
	var words [][]uint32
	for i := 0; i < 2; i++ {
		w, err := MixedProgram(rng, 350)
		if err != nil {
			t.Fatal(err)
		}
		words = append(words, w)
	}
	score := func(opts ModelOptions) (acc, rmse float64) {
		mv := m.WithOptions(opts)
		for _, w := range words {
			cmp, err := mv.CompareOnDevice(dev, w, 8)
			if err != nil {
				t.Fatal(err)
			}
			acc += cmp.Accuracy
			rmse += cmp.RMSE
		}
		n := float64(len(words))
		return acc / n, rmse / n
	}
	fullAcc, fullRMSE := score(FullModel())
	ablations := map[string]ModelOptions{
		"no-stall":      {PerStageSources: true, Activity: ActivityLR, ModelCache: true, ModelFlush: true},
		"no-activity":   {PerStageSources: true, Activity: ActivityNone, ModelStalls: true, ModelCache: true, ModelFlush: true},
		"single-source": {Activity: ActivityLR, ModelStalls: true, ModelCache: true, ModelFlush: true},
		"no-flush":      {PerStageSources: true, Activity: ActivityLR, ModelStalls: true, ModelCache: true},
	}
	// An ablation must hurt at least one metric: the shape-oriented
	// per-cycle correlation or the amplitude-sensitive normalized RMSE.
	for name, opts := range ablations {
		acc, rmse := score(opts)
		if acc >= fullAcc && rmse <= 1.05*fullRMSE {
			t.Errorf("%s shows no degradation: accuracy %.3f (full %.3f), RMSE %.3f (full %.3f)",
				name, acc, fullAcc, rmse, fullRMSE)
		}
	}
}

func TestModelAmpKeyMapping(t *testing.T) {
	m := &Model{Options: FullModel()}
	bubble := &cpu.StageTrace{Bubble: true, Seq: -1}
	if m.ampKeyFor(bubble) != ampKeyBubble {
		t.Error("bubble should map to the bubble key with flush modeling")
	}
	mNoFlush := m.WithOptions(ModelOptions{PerStageSources: true, Activity: ActivityLR, ModelStalls: true, ModelCache: true})
	if mNoFlush.ampKeyFor(bubble) != ampKeyNOP {
		t.Error("bubble should map to NOP without flush modeling")
	}
	nop := &cpu.StageTrace{Op: isa.ADDI, Inst: isa.Nop()}
	if m.ampKeyFor(nop) != ampKeyNOP {
		t.Error("NOP should map to NOP key")
	}
	missLoad := &cpu.StageTrace{Op: isa.LW, Inst: isa.Lw(isa.T0, isa.Zero, 0), CacheAccess: true, CacheHit: false}
	if m.ampKeyFor(missLoad) != int(isa.ClusterLoad) {
		t.Error("missing load should map to Load")
	}
	mNoCache := m.WithOptions(ModelOptions{PerStageSources: true, Activity: ActivityLR, ModelStalls: true, ModelFlush: true})
	if mNoCache.ampKeyFor(missLoad) != int(isa.ClusterCache) {
		t.Error("without cache modeling a miss should map to Cache")
	}
	if AmpKeyName(ampKeyNOP) != "NOP" || AmpKeyName(0) != "ALU" {
		t.Error("AmpKeyName broken")
	}
}

func TestModelStallZeroing(t *testing.T) {
	m := &Model{Options: FullModel()}
	for k := 0; k < NumAmpKeys; k++ {
		for s := 0; s < cpu.NumStages; s++ {
			m.Amp[k][s] = 1
		}
	}
	stalled := &cpu.StageTrace{Op: isa.ADD, Inst: isa.Add(isa.T0, isa.T1, isa.T2), Stalled: true}
	if got := m.stageSource(cpu.EX, stalled, false); got != 0 {
		t.Errorf("stalled source = %v, want 0", got)
	}
	mNoStall := m.WithOptions(ModelOptions{PerStageSources: true, Activity: ActivityNone, ModelCache: true, ModelFlush: true})
	if got := mNoStall.stageSource(cpu.EX, stalled, false); got != 1 {
		t.Errorf("no-stall-model source = %v, want 1", got)
	}
	// Cache ablation: a miss's wait cycle in MEM emits as active.
	memWait := &cpu.StageTrace{Op: isa.LW, Inst: isa.Lw(isa.T0, isa.Zero, 0), Stalled: true, CacheAccess: true}
	mNoCache := m.WithOptions(ModelOptions{PerStageSources: true, Activity: ActivityNone, ModelStalls: true, ModelFlush: true})
	if got := mNoCache.stageSource(cpu.MEM, memWait, false); got == 0 {
		t.Error("cache-ablated MEM wait cycle should emit")
	}
	if got := m.stageSource(cpu.MEM, memWait, false); got != 0 {
		t.Error("full model MEM wait cycle should be quiet")
	}
}

func TestWithBetaScalesSources(t *testing.T) {
	m := &Model{Options: FullModel()}
	for k := 0; k < NumAmpKeys; k++ {
		for s := 0; s < cpu.NumStages; s++ {
			m.Amp[k][s] = 2
		}
	}
	st := &cpu.StageTrace{Op: isa.ADD, Inst: isa.Add(isa.T0, isa.T1, isa.T2)}
	base := m.stageSource(cpu.EX, st, false)
	mb := m.WithBeta([cpu.NumStages]float64{1, 1, 0.5, 1, 1})
	if got := mb.stageSource(cpu.EX, st, false); math.Abs(got-base/2) > 1e-12 {
		t.Errorf("beta-scaled source = %v, want %v", got, base/2)
	}
	// Base model unchanged (WithBeta copies).
	if m.Beta != nil {
		t.Error("WithBeta mutated the receiver")
	}
}

func TestSimulateProgramEndToEnd(t *testing.T) {
	m, dev := testModel(t)
	words := allNOPProgram(20)
	tr, y, err := m.SimulateProgram(dev.Options().CPU, words)
	if err != nil {
		t.Fatal(err)
	}
	if len(y) != len(tr)*m.SamplesPerCycle {
		t.Errorf("signal length %d != %d cycles × %d", len(y), len(tr), m.SamplesPerCycle)
	}
	if signal.Energy(y) == 0 {
		t.Error("simulated signal is silent")
	}
}

func TestCompareErrors(t *testing.T) {
	m := &Model{SamplesPerCycle: 16, Options: FullModel()}
	if _, err := m.Compare([]float64{1}, []float64{1, 2}); err == nil {
		t.Error("length mismatch accepted")
	}
	if _, err := m.Compare(make([]float64, 8), make([]float64, 8)); err == nil {
		t.Error("sub-cycle signals accepted")
	}
}

func TestMixedProgramDeterministicAndRunnable(t *testing.T) {
	w1, err := MixedProgram(rand.New(rand.NewSource(5)), 300)
	if err != nil {
		t.Fatal(err)
	}
	w2, err := MixedProgram(rand.New(rand.NewSource(5)), 300)
	if err != nil {
		t.Fatal(err)
	}
	if len(w1) != len(w2) {
		t.Fatal("nondeterministic program size")
	}
	for i := range w1 {
		if w1[i] != w2[i] {
			t.Fatal("nondeterministic program content")
		}
	}
	c := cpu.MustNew(cpu.DefaultConfig())
	if _, err := c.RunProgram(w1); err != nil {
		t.Fatalf("mixed program does not run: %v", err)
	}
	st := c.Stats()
	if st.CacheMisses == 0 {
		t.Error("mixed program should produce cache misses")
	}
	if st.Mispredicts == 0 {
		t.Error("mixed program should produce mispredictions")
	}
}

func TestZeroOperandProgramsRun(t *testing.T) {
	c := cpu.MustNew(cpu.DefaultConfig())
	for i, words := range zeroOperandPrograms() {
		if _, err := c.RunProgram(words); err != nil {
			t.Errorf("zero-operand program %d: %v", i, err)
		}
	}
}

func TestRandomOperandProgramsRun(t *testing.T) {
	progs, err := randomOperandPrograms(func(i int) *rand.Rand {
		return rand.New(rand.NewSource(6 + int64(i)))
	}, 5)
	if err != nil {
		t.Fatal(err)
	}
	c := cpu.MustNew(cpu.DefaultConfig())
	for i, words := range progs {
		if _, err := c.RunProgram(words); err != nil {
			t.Errorf("random-operand program %d: %v", i, err)
		}
	}
}

func TestActivityModelStrings(t *testing.T) {
	if ActivityLR.String() != "stepwise-LR" || ActivityAverage.String() != "average" ||
		ActivityNone.String() != "none" || ActivityModel(9).String() != "unknown" {
		t.Error("ActivityModel.String broken")
	}
}

func TestStageActivityContribution(t *testing.T) {
	am := StageActivityModel{
		Selected:   []int{0, 33},
		Coef:       []float64{0.5, -0.25},
		Candidates: 64,
	}
	st := &cpu.StageTrace{}
	st.Flip[0] = 1      // bit 0 set
	st.Flip[1] = 1 << 1 // bit 33 set
	if got := am.contribution(st); math.Abs(got-0.25) > 1e-12 {
		t.Errorf("LR contribution = %v, want 0.25", got)
	}
	if p := am.PrunedFraction(); math.Abs(p-(1-2.0/64)) > 1e-12 {
		t.Errorf("pruned fraction = %v", p)
	}
	empty := StageActivityModel{}
	if empty.PrunedFraction() != 0 {
		t.Error("empty model pruned fraction should be 0")
	}
}

func TestActivityAverageScalesBaseline(t *testing.T) {
	// The Equ. 7 ablation is parameter-free: every flip inflates the
	// baseline by 1/totalBits.
	m := &Model{Options: FullModel()}
	for k := 0; k < NumAmpKeys; k++ {
		for s := 0; s < cpu.NumStages; s++ {
			m.Amp[k][s] = 2
		}
	}
	st := &cpu.StageTrace{Op: isa.ADD, Inst: isa.Add(isa.T0, isa.T1, isa.T2)}
	st.Flip[0] = 0xF // four flips
	mAvg := m.WithOptions(ModelOptions{PerStageSources: true, Activity: ActivityAverage,
		ModelStalls: true, ModelCache: true, ModelFlush: true})
	want := 2 * (1 + 4.0/float64(cpu.FeatureBits(cpu.EX)))
	if got := mAvg.stageSource(cpu.EX, st, false); math.Abs(got-want) > 1e-12 {
		t.Errorf("Equ.7 source = %v, want %v", got, want)
	}
	mNone := m.WithOptions(ModelOptions{PerStageSources: true, Activity: ActivityNone,
		ModelStalls: true, ModelCache: true, ModelFlush: true})
	if got := mNone.stageSource(cpu.EX, st, false); got != 2 {
		t.Errorf("ActivityNone source = %v, want 2", got)
	}
}

func TestModelSaveLoadRoundTrip(t *testing.T) {
	m, dev := testModel(t)
	path := t.TempDir() + "/model.json"
	if err := m.SaveFile(path); err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadModelFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// The loaded model must simulate identically.
	words, err := MixedProgram(rand.New(rand.NewSource(55)), 200)
	if err != nil {
		t.Fatal(err)
	}
	cfg := dev.Options().CPU
	_, a, err := m.SimulateProgram(cfg, words)
	if err != nil {
		t.Fatal(err)
	}
	_, b, err := loaded.SimulateProgram(cfg, words)
	if err != nil {
		t.Fatal(err)
	}
	if len(a) != len(b) {
		t.Fatal("lengths differ")
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("loaded model diverges at sample %d: %v vs %v", i, a[i], b[i])
		}
	}
}

func TestLoadModelRejectsBadInput(t *testing.T) {
	if _, err := LoadModel(strings.NewReader("not json")); err == nil {
		t.Error("garbage accepted")
	}
	if _, err := LoadModel(strings.NewReader(`{"version":99,"model":{}}`)); err == nil {
		t.Error("wrong version accepted")
	}
	if _, err := LoadModel(strings.NewReader(`{"version":1}`)); err == nil {
		t.Error("missing model accepted")
	}
	if _, err := LoadModel(strings.NewReader(`{"version":1,"model":{"SamplesPerCycle":0}}`)); err == nil {
		t.Error("invalid SamplesPerCycle accepted")
	}
	bad := `{"version":1,"model":{"SamplesPerCycle":16,
		"Kernel":{"Kind":2,"Theta":2,"Period":0.25,"SupportCycles":3},
		"Activity":[{"Selected":[9999],"Coef":[1]},{},{},{},{}]}}`
	if _, err := LoadModel(strings.NewReader(bad)); err == nil {
		t.Error("out-of-range activity bit accepted")
	}
	if _, err := LoadModelFile("/nonexistent/model.json"); err == nil {
		t.Error("missing file accepted")
	}

	golden, words := readGolden(t)
	for _, tc := range unboundedModels {
		if _, err := LoadModel(bytes.NewReader(mutatedModel(t, golden, tc.edit))); err == nil {
			t.Errorf("%s: hostile model accepted", tc.name)
		}
	}
	// Large but representable parameters stay loadable and simulate to
	// finite output.
	m, err := LoadModel(bytes.NewReader(mutatedModel(t, golden, func(m *Model) {
		m.Amp[0][cpu.EX] = 1e100
		m.Kernel.SupportCycles = maxSupportCycles
	})))
	if err != nil {
		t.Fatalf("large finite model rejected: %v", err)
	}
	simulateFinite(t, m, words)
}

func TestAttributionHardwareAndSoftware(t *testing.T) {
	m, _ := testModel(t)

	// A MUL-heavy loop: the MUL/DIV instruction and the EX stage must top
	// the attribution; a miss-heavy loop must shift weight to MEM.
	mulProg := func() []uint32 {
		b := newTestBuilder()
		b.Li(isa.T1, 0x7FFF1234)
		b.Li(isa.T2, 0x1357)
		b.Nop(4)
		b.I(isa.Addi(isa.S3, isa.Zero, 10))
		b.Label("l")
		b.I(isa.Mul(isa.T0, isa.T1, isa.T2))
		b.Nop(3)
		b.I(isa.Addi(isa.S3, isa.S3, -1))
		b.Branch(isa.BNE, isa.S3, isa.Zero, "l")
		b.I(isa.Ebreak())
		return b.MustAssemble().Words
	}()

	c := cpu.MustNew(cpu.DefaultConfig())
	tr, err := c.RunProgram(mulProg)
	if err != nil {
		t.Fatal(err)
	}
	att := m.Attribute(tr)

	// Shares sum to 1.
	sum := 0.0
	for _, s := range att.StageShare {
		sum += s
	}
	if math.Abs(sum-1) > 1e-9 {
		t.Errorf("stage shares sum to %v", sum)
	}
	// The top instruction by total contribution must be the MUL.
	if len(att.Instructions) == 0 {
		t.Fatal("no instructions attributed")
	}
	if att.Instructions[0].Inst.Op != isa.MUL {
		t.Errorf("top emitter is %v, want MUL", att.Instructions[0].Inst)
	}
	if att.Instructions[0].Executions != 10 {
		t.Errorf("MUL executions = %d, want 10", att.Instructions[0].Executions)
	}
	if att.Instructions[0].Mean() <= 0 || att.Instructions[0].Peak <= 0 {
		t.Error("degenerate contribution stats")
	}
	if rep := att.Report(5); !strings.Contains(rep, "mul") {
		t.Errorf("report missing the MUL:\n%s", rep)
	}

	// Miss-heavy program: MEM share must exceed the MUL program's.
	missProg := func() []uint32 {
		b := newTestBuilder()
		b.Li(isa.S1, 0x80000)
		b.Nop(4)
		for i := 0; i < 12; i++ {
			b.I(isa.Lw(isa.T0, isa.S1, int32(64*i)))
			b.Nop(2)
		}
		b.I(isa.Ebreak())
		return b.MustAssemble().Words
	}()
	tr2, err := c.RunProgram(missProg)
	if err != nil {
		t.Fatal(err)
	}
	att2 := m.Attribute(tr2)
	if att2.StageShare[cpu.MEM] <= att.StageShare[cpu.MEM] {
		t.Errorf("miss-heavy MEM share %.3f not above mul-heavy %.3f",
			att2.StageShare[cpu.MEM], att.StageShare[cpu.MEM])
	}
}

// newTestBuilder keeps the attribution test free of a direct asm import
// cycle concern (core already depends on asm).
func newTestBuilder() *asm.Builder { return asm.NewBuilder() }
