package leakage

import (
	"errors"
	"math/rand"
	"testing"

	"emsim/internal/cpu"
	"emsim/internal/device"
)

func TestSavatProgramRuns(t *testing.T) {
	for a := SavatInst(0); a < NumSavatInsts; a++ {
		for b := SavatInst(0); b < NumSavatInsts; b++ {
			words, err := SavatProgram(a, b, 4, 4)
			if err != nil {
				t.Fatalf("%v/%v: %v", a, b, err)
			}
			c := cpu.MustNew(cpu.DefaultConfig())
			if _, err := c.RunProgram(words); err != nil {
				t.Fatalf("%v/%v does not run: %v", a, b, err)
			}
		}
	}
}

func TestSavatProgramErrors(t *testing.T) {
	if _, err := SavatProgram(ADD, NOP, 0, 4); err == nil {
		t.Error("perHalf=0 accepted")
	}
	if _, err := SavatProgram(ADD, NOP, 4, 0); err == nil {
		t.Error("periods=0 accepted")
	}
}

func TestSavatLDMAlwaysMisses(t *testing.T) {
	words, err := SavatProgram(LDM, NOP, 8, 8)
	if err != nil {
		t.Fatal(err)
	}
	c := cpu.MustNew(cpu.DefaultConfig())
	if _, err := c.RunProgram(words); err != nil {
		t.Fatal(err)
	}
	st := c.Stats()
	// 64 LDM loads plus the warm-up access; all LDM loads must miss.
	if st.CacheMisses < 64 {
		t.Errorf("only %d misses for 64 LDM loads", st.CacheMisses)
	}
}

func TestSavatLDCAlwaysHits(t *testing.T) {
	words, err := SavatProgram(LDC, NOP, 8, 8)
	if err != nil {
		t.Fatal(err)
	}
	c := cpu.MustNew(cpu.DefaultConfig())
	if _, err := c.RunProgram(words); err != nil {
		t.Fatal(err)
	}
	st := c.Stats()
	if st.CacheMisses > 1 { // only the warm-up access may miss
		t.Errorf("%d misses in an LDC benchmark", st.CacheMisses)
	}
	if st.CacheHits < 64 {
		t.Errorf("only %d hits for 64 LDC loads", st.CacheHits)
	}
}

// measureSavat runs the microbenchmark on a device and computes SAVAT.
func measureSavat(t *testing.T, dev *device.Device, a, b SavatInst) float64 {
	t.Helper()
	words, err := SavatProgram(a, b, 8, 16)
	if err != nil {
		t.Fatal(err)
	}
	sig, err := dev.MeasureAveraged(words, 10)
	if err != nil {
		t.Fatal(err)
	}
	spc := dev.SamplesPerCycle()
	v, err := Savat(sig, spc, len(sig)/spc, 16)
	if err != nil {
		t.Fatal(err)
	}
	return v
}

func TestSavatDiagonalNearZero(t *testing.T) {
	// A-vs-A alternation has no signal at the alternation frequency;
	// A-vs-B with very different events has a strong one (Table II).
	dev := device.MustNew(device.DefaultOptions())
	same := measureSavat(t, dev, ADD, ADD)
	diff := measureSavat(t, dev, LDM, NOP)
	if diff < 10*same {
		t.Errorf("SAVAT(LDM,NOP)=%g not ≫ SAVAT(ADD,ADD)=%g", diff, same)
	}
}

func TestSavatOrderingMatchesTableII(t *testing.T) {
	// The paper's Table II: LDM-vs-X values dominate; ADD-vs-NOP is tiny.
	dev := device.MustNew(device.DefaultOptions())
	ldmNop := measureSavat(t, dev, LDM, NOP)
	addNop := measureSavat(t, dev, ADD, NOP)
	if ldmNop < 2.5*addNop {
		t.Errorf("SAVAT(LDM,NOP)=%g should dominate SAVAT(ADD,NOP)=%g", ldmNop, addNop)
	}
}

func TestSavatErrors(t *testing.T) {
	if _, err := Savat(nil, 0, 1, 1); err == nil {
		t.Error("bad geometry accepted")
	}
	if _, err := Savat([]float64{}, 16, 10, 2); err == nil {
		t.Error("empty signal accepted")
	}
}

func TestTVLADetectsDataDependentSource(t *testing.T) {
	// A synthetic source whose sample 7 depends on input byte 0 leaks; the
	// t-test must find it.
	rng := rand.New(rand.NewSource(3))
	noise := rand.New(rand.NewSource(4))
	src := func(input [16]byte) ([]float64, error) {
		tr := make([]float64, 32)
		for i := range tr {
			tr[i] = noise.NormFloat64()
		}
		tr[7] += float64(input[0]) / 64
		return tr, nil
	}
	var fixed [16]byte
	fixed[0] = 255
	res, err := TVLA(src, fixed, rng, 80)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Leaks() {
		t.Fatal("leak not detected")
	}
	found := false
	for _, p := range res.LeakyPoints {
		if p == 7 {
			found = true
		}
	}
	if !found {
		t.Errorf("leak at 7 not flagged; points = %v", res.LeakyPoints)
	}
	if res.MaxAbsT <= 4.5 {
		t.Errorf("MaxAbsT = %v", res.MaxAbsT)
	}
	if res.Traces != 80 {
		t.Errorf("Traces = %d", res.Traces)
	}
}

func TestTVLANoLeakOnIndependentSource(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	noise := rand.New(rand.NewSource(6))
	src := func(input [16]byte) ([]float64, error) {
		tr := make([]float64, 32)
		for i := range tr {
			tr[i] = noise.NormFloat64()
		}
		return tr, nil
	}
	var fixed [16]byte
	res, err := TVLA(src, fixed, rng, 60)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.LeakyPoints) > 1 {
		t.Errorf("false positives: %v", res.LeakyPoints)
	}
}

func TestTVLATruncatesRaggedTraces(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	noise := rand.New(rand.NewSource(8))
	n := 0
	src := func(input [16]byte) ([]float64, error) {
		n++
		tr := make([]float64, 30+n%3) // varying lengths
		for i := range tr {
			tr[i] = noise.NormFloat64()
		}
		return tr, nil
	}
	var fixed [16]byte
	res, err := TVLA(src, fixed, rng, 10)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.T) != 30 {
		t.Errorf("t-trace length %d, want 30 (min)", len(res.T))
	}
}

func TestTVLAErrors(t *testing.T) {
	src := func([16]byte) ([]float64, error) { return []float64{1}, nil }
	if _, err := TVLA(src, [16]byte{}, rand.New(rand.NewSource(1)), 1); err == nil {
		t.Error("1 trace per group accepted")
	}
	empty := func([16]byte) ([]float64, error) { return nil, nil }
	if _, err := TVLA(empty, [16]byte{}, rand.New(rand.NewSource(1)), 3); err == nil {
		t.Error("empty traces accepted")
	}
}

func TestSavatInstString(t *testing.T) {
	if LDM.String() != "LDM" || DIV.String() != "DIV" || SavatInst(9).String() != "savat(9)" {
		t.Error("SavatInst.String broken")
	}
}

func BenchmarkSavatProgram(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := SavatProgram(LDM, MUL, 6, 8); err != nil {
			b.Fatal(err)
		}
	}
}

func TestSavatMatrixErrors(t *testing.T) {
	okRun := func(words []uint32) ([]float64, int, error) {
		sig := make([]float64, 64*16)
		return sig, 64, nil
	}
	// Bad program geometry fails before any cell is measured.
	if _, err := SavatMatrix(okRun, 16, 0, 2); err == nil {
		t.Error("perHalf=0 accepted")
	}
	if _, err := SavatMatrix(okRun, 16, 16, 2); err == nil {
		t.Error("perHalf beyond the miss-stride window accepted")
	}
	// A failing measurement aborts the sweep with the cell named.
	boom := errors.New("probe fell off")
	failRun := func(words []uint32) ([]float64, int, error) { return nil, 0, boom }
	if _, err := SavatMatrix(failRun, 16, 4, 2); err == nil || !errors.Is(err, boom) {
		t.Errorf("measurement error not propagated: %v", err)
	}
	// A signal too short for the alternation periods fails in Savat.
	shortRun := func(words []uint32) ([]float64, int, error) {
		return make([]float64, 16), 1, nil
	}
	if _, err := SavatMatrix(shortRun, 16, 4, 2); err == nil {
		t.Error("too-short signal accepted")
	}
}
