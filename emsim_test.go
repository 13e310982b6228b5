package emsim

import (
	"math"
	"math/rand"
	"testing"

	"emsim/internal/cpu"
)

// The facade tests exercise the whole public journey a downstream user
// takes: device, training, assembly, simulation, comparison, leakage
// metrics — using only identifiers exported from package emsim.

func TestFacadeEndToEnd(t *testing.T) {
	env := benchEnvironment(t) // shared trained model (see bench_test.go)
	model, dev := env.Model, env.Dev

	prog, err := Assemble(`
		li   t0, 12
		li   t1, 1
	loop:
		mul  t1, t1, t0
		addi t0, t0, -1
		bgtz t0, loop
		li   t2, 0x2000
		sw   t1, 0(t2)
		ebreak
	`)
	if err != nil {
		t.Fatal(err)
	}

	// Pure simulation.
	trace, sig, err := model.SimulateProgram(DefaultCPUConfig(), prog.Words)
	if err != nil {
		t.Fatal(err)
	}
	if len(sig) != len(trace)*model.SamplesPerCycle {
		t.Fatalf("signal %d samples for %d cycles", len(sig), len(trace))
	}

	// Validation against a measurement.
	cmp, err := model.CompareOnDevice(dev, prog.Words, 10)
	if err != nil {
		t.Fatal(err)
	}
	if cmp.Accuracy < 0.85 {
		t.Errorf("facade accuracy %.3f", cmp.Accuracy)
	}

	// Architectural correctness through the facade CPU.
	c := NewCPU(DefaultCPUConfig())
	if _, err := c.RunProgram(prog.Words); err != nil {
		t.Fatal(err)
	}
	if got := c.Memory().ReadWord(0x2000); got != 479001600 { // 12!
		t.Errorf("12! = %d", got)
	}
}

func TestFacadeAES(t *testing.T) {
	var key, pt [16]byte
	copy(key[:], "sixteen byte key")
	copy(pt[:], "plaintext block!")
	prog, err := BuildAES(key, pt)
	if err != nil {
		t.Fatal(err)
	}
	c := NewCPU(DefaultCPUConfig())
	if _, err := c.RunProgram(prog.Words); err != nil {
		t.Fatal(err)
	}
	out := prog.Output(c.Memory().ReadWord)
	allZero := true
	for _, b := range out {
		if b != 0 {
			allZero = false
		}
	}
	if allZero {
		t.Error("AES produced a zero ciphertext")
	}
}

func TestFacadeTVLA(t *testing.T) {
	// A synthetic leaky source through the facade API.
	noise := rand.New(rand.NewSource(1))
	src := TraceSource(func(input [16]byte) ([]float64, error) {
		tr := make([]float64, 24)
		for i := range tr {
			tr[i] = noise.NormFloat64()
		}
		tr[5] += float64(input[3]) / 50
		return tr, nil
	})
	var fixed [16]byte
	fixed[3] = 200
	res, err := TVLA(src, fixed, rand.New(rand.NewSource(2)), 60)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Leaks() {
		t.Error("facade TVLA missed the planted leak")
	}
}

func TestFacadeSavat(t *testing.T) {
	env := benchEnvironment(t)
	words, err := SavatProgram(LDM, NOP, 8, 16)
	if err != nil {
		t.Fatal(err)
	}
	sig, err := env.Dev.MeasureAveraged(words, 8)
	if err != nil {
		t.Fatal(err)
	}
	spc := env.Dev.SamplesPerCycle()
	v, err := Savat(sig, spc, len(sig)/spc, 16)
	if err != nil {
		t.Fatal(err)
	}
	if v <= 0 {
		t.Errorf("SAVAT(LDM, NOP) = %v, want > 0", v)
	}
}

func TestFacadePrograms(t *testing.T) {
	// MixedProgram and CombinationGroup must be runnable through the
	// facade (programmatic construction with isa helpers is exercised by
	// the internal suites and the hwdebug example).
	words, err := MixedProgram(rand.New(rand.NewSource(3)), 200)
	if err != nil {
		t.Fatal(err)
	}
	c := NewCPU(DefaultCPUConfig())
	if _, err := c.RunProgram(words); err != nil {
		t.Fatal(err)
	}
	group, err := CombinationGroup(3, rand.New(rand.NewSource(4)), true)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.RunProgram(group); err != nil {
		t.Fatal(err)
	}
}

func TestFacadeModelOptions(t *testing.T) {
	env := benchEnvironment(t)
	opts := FullModel()
	if !opts.PerStageSources || !opts.ModelStalls || !opts.ModelCache || !opts.ModelFlush {
		t.Error("FullModel should enable everything")
	}
	opts.ModelStalls = false
	ablated := env.Model.WithOptions(opts)
	words, err := MixedProgram(rand.New(rand.NewSource(5)), 200)
	if err != nil {
		t.Fatal(err)
	}
	full, err := env.Model.CompareOnDevice(env.Dev, words, 6)
	if err != nil {
		t.Fatal(err)
	}
	abl, err := ablated.CompareOnDevice(env.Dev, words, 6)
	if err != nil {
		t.Fatal(err)
	}
	if abl.Accuracy >= full.Accuracy && abl.RMSE <= full.RMSE {
		t.Error("stall ablation shows no degradation through the facade")
	}
}

func TestFacadeProbeAdaptation(t *testing.T) {
	env := benchEnvironment(t)
	opts := DefaultDeviceOptions()
	opts.Probe = ProbePosition{X: 3.2, Height: 1.4}
	opts.NoiseSeed = 77
	moved := NewDevice(opts)
	calib, err := MixedProgram(rand.New(rand.NewSource(6)), 300)
	if err != nil {
		t.Fatal(err)
	}
	adapted, beta, err := env.Model.AdaptToProbe(moved, calib, 8)
	if err != nil {
		t.Fatal(err)
	}
	sum := 0.0
	for _, b := range beta {
		sum += math.Abs(b - 1)
	}
	if sum < 0.3 {
		t.Errorf("β barely moved for a displaced probe: %v", beta)
	}
	eval, err := MixedProgram(rand.New(rand.NewSource(7)), 300)
	if err != nil {
		t.Fatal(err)
	}
	cmp, err := adapted.CompareOnDevice(moved, eval, 8)
	if err != nil {
		t.Fatal(err)
	}
	if cmp.Accuracy < 0.85 {
		t.Errorf("adapted accuracy %.3f at the moved probe", cmp.Accuracy)
	}
}

func TestFacadeCPUStatsSurface(t *testing.T) {
	c := NewCPU(DefaultCPUConfig())
	prog := MustAssemble(`
		li t0, 3
	l:
		addi t0, t0, -1
		bnez t0, l
		ebreak
	`)
	tr, err := c.RunProgram(prog.Words)
	if err != nil {
		t.Fatal(err)
	}
	var st CPUStats = c.Stats()
	if st.Cycles != len(tr) {
		t.Error("stats cycles mismatch")
	}
	var cycle Cycle = tr[0]
	if cycle.N != 0 {
		t.Error("first cycle should be N=0")
	}
	var _ Trace = tr
	if cpu.NumStages != 5 {
		t.Error("five pipeline stages expected")
	}
}

func TestFacadeAttribution(t *testing.T) {
	// The §VIII promise through the public API: break a simulated signal
	// down by hardware (stage) and software (instruction).
	env := benchEnvironment(t)
	prog := MustAssemble(`
		li   t1, 0x1234567
		li   t2, 0x89ab
		li   t0, 6
	loop:
		mul  t3, t1, t2
		addi t0, t0, -1
		bnez t0, loop
		ebreak
	`)
	c := NewCPU(DefaultCPUConfig())
	tr, err := c.RunProgram(prog.Words)
	if err != nil {
		t.Fatal(err)
	}
	var att *Attribution = env.Model.Attribute(tr)
	sum := 0.0
	for _, s := range att.StageShare {
		sum += s
	}
	if math.Abs(sum-1) > 1e-9 {
		t.Errorf("stage shares sum to %v", sum)
	}
	if len(att.Instructions) == 0 {
		t.Fatal("no instructions attributed")
	}
	// The MUL must be among the top emitters of this loop.
	foundMul := false
	for _, ia := range att.Instructions[:3] {
		if ia.Inst.Op.String() == "mul" {
			foundMul = true
		}
	}
	if !foundMul {
		t.Errorf("mul not in top-3 emitters: top is %v", att.Instructions[0].Inst)
	}
	if rep := att.Report(5); rep == "" {
		t.Error("empty attribution report")
	}
}

func TestFacadeModelFileRoundTrip(t *testing.T) {
	// SaveFile / LoadModelFile: the "ship the board's parameters" flow.
	env := benchEnvironment(t)
	path := t.TempDir() + "/model.json"
	if err := env.Model.SaveFile(path); err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadModelFile(path)
	if err != nil {
		t.Fatal(err)
	}
	prog := MustAssemble(`
		li  t0, 9
	l:	addi t0, t0, -1
		bnez t0, l
		ebreak
	`)
	_, want, err := env.Model.SimulateProgram(DefaultCPUConfig(), prog.Words)
	if err != nil {
		t.Fatal(err)
	}
	_, got, err := loaded.SimulateProgram(DefaultCPUConfig(), prog.Words)
	if err != nil {
		t.Fatal(err)
	}
	for i := range want {
		if want[i] != got[i] {
			t.Fatalf("sample %d differs after file round trip", i)
		}
	}
	if _, err := LoadModelFile(t.TempDir() + "/missing.json"); err == nil {
		t.Error("loading a missing file succeeded")
	}
}

func TestFacadeCombinationGroup(t *testing.T) {
	// The §V-A benchmark generator through the public API: every group
	// must assemble into a runnable, halting program.
	rng := rand.New(rand.NewSource(5))
	words, err := CombinationGroup(0, rng, false)
	if err != nil {
		t.Fatal(err)
	}
	c := NewCPU(DefaultCPUConfig())
	if _, err := c.RunProgram(words); err != nil {
		t.Fatalf("combination group 0 did not halt: %v", err)
	}
	if _, err := CombinationGroup(-1, rng, false); err == nil {
		t.Error("negative group index accepted")
	}
}
