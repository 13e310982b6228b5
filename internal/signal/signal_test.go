package signal

import (
	"math"
	"math/cmplx"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestKernelTapsRect(t *testing.T) {
	k := Kernel{Kind: KernelRect}
	taps, err := k.Taps(8)
	if err != nil {
		t.Fatal(err)
	}
	if len(taps) != 8 {
		t.Fatalf("rect taps = %d, want 8", len(taps))
	}
	for _, v := range taps {
		if v != 1 {
			t.Fatal("rect taps must be 1")
		}
	}
}

func TestKernelTapsExpDecays(t *testing.T) {
	k := Kernel{Kind: KernelExp, Theta: 4, SupportCycles: 2}
	taps, err := k.Taps(10)
	if err != nil {
		t.Fatal(err)
	}
	if len(taps) != 20 {
		t.Fatalf("taps = %d, want 20", len(taps))
	}
	for i := 1; i < len(taps); i++ {
		if taps[i] >= taps[i-1] {
			t.Fatal("exp kernel must strictly decay")
		}
	}
	if taps[0] != 1 {
		t.Errorf("taps[0] = %v, want 1", taps[0])
	}
}

func TestKernelTapsSinExpRings(t *testing.T) {
	k := DefaultKernel()
	taps, err := k.Taps(32)
	if err != nil {
		t.Fatal(err)
	}
	// Must cross zero (ringing) and decay overall.
	crossings := 0
	for i := 1; i < len(taps); i++ {
		if (taps[i-1] > 0) != (taps[i] > 0) {
			crossings++
		}
	}
	if crossings < 4 {
		t.Errorf("sin-exp kernel has %d zero crossings, want >= 4 (ringing)", crossings)
	}
	// Peak in the first cycle must dominate the second cycle's peak.
	max1, max2 := 0.0, 0.0
	for i, v := range taps {
		av := math.Abs(v)
		if i < 32 && av > max1 {
			max1 = av
		}
		if i >= 32 && i < 64 && av > max2 {
			max2 = av
		}
	}
	if max2 >= max1/2 {
		t.Errorf("kernel not decaying: peak1 %v, peak2 %v", max1, max2)
	}
}

func TestKernelErrors(t *testing.T) {
	if _, err := (Kernel{Kind: KernelExp}).Taps(4); err == nil {
		t.Error("exp kernel with Theta=0 accepted")
	}
	if _, err := (Kernel{Kind: KernelSinExp, Theta: 1}).Taps(4); err == nil {
		t.Error("sin-exp kernel with Period=0 accepted")
	}
	if _, err := DefaultKernel().Taps(0); err == nil {
		t.Error("0 samples/cycle accepted")
	}
	if _, err := (Kernel{Kind: KernelKind(99)}).Taps(4); err == nil {
		t.Error("unknown kind accepted")
	}
	if KernelRect.String() != "rect" || KernelSinExp.String() != "sin-exp" || KernelKind(9).String() != "unknown" {
		t.Error("KernelKind.String broken")
	}
}

func TestReconstructRectIsZOH(t *testing.T) {
	x := []float64{1, 2, 3}
	y, err := Reconstruct(x, 4, Kernel{Kind: KernelRect})
	if err != nil {
		t.Fatal(err)
	}
	want := []float64{1, 1, 1, 1, 2, 2, 2, 2, 3, 3, 3, 3}
	for i := range want {
		if y[i] != want[i] {
			t.Fatalf("ZOH[%d] = %v, want %v", i, y[i], want[i])
		}
	}
}

func TestReconstructSuperposes(t *testing.T) {
	// With a 2-cycle support kernel, cycle n's tail lands in cycle n+1.
	k := Kernel{Kind: KernelExp, Theta: 1, SupportCycles: 2}
	spc := 4
	y1 := MustReconstruct([]float64{1, 0}, spc, k)
	y2 := MustReconstruct([]float64{0, 1}, spc, k)
	both := MustReconstruct([]float64{1, 1}, spc, k)
	for i := range both {
		if math.Abs(both[i]-(y1[i]+y2[i])) > 1e-12 {
			t.Fatalf("superposition violated at %d", i)
		}
	}
	if y1[spc] == 0 {
		t.Error("kernel tail should reach the next cycle")
	}
}

func TestRMSEAndEnergy(t *testing.T) {
	a := []float64{1, 2, 3}
	b := []float64{1, 2, 5}
	got, err := RMSE(a, b)
	if err != nil {
		t.Fatal(err)
	}
	want := math.Sqrt(4.0 / 3)
	if math.Abs(got-want) > 1e-12 {
		t.Errorf("RMSE = %v, want %v", got, want)
	}
	if _, err := RMSE(a, b[:2]); err == nil {
		t.Error("length mismatch accepted")
	}
	if _, err := RMSE(nil, nil); err == nil {
		t.Error("empty accepted")
	}
	if Energy([]float64{3, 4}) != 25 {
		t.Error("Energy broken")
	}
}

func TestNCC(t *testing.T) {
	a := []float64{1, -2, 3}
	scaled := []float64{2, -4, 6}
	if ncc, _ := NCC(a, scaled); math.Abs(ncc-1) > 1e-12 {
		t.Errorf("NCC of scaled copies = %v", ncc)
	}
	neg := []float64{-1, 2, -3}
	if ncc, _ := NCC(a, neg); math.Abs(ncc+1) > 1e-12 {
		t.Errorf("NCC of negated = %v", ncc)
	}
	zero := []float64{0, 0, 0}
	if ncc, _ := NCC(zero, zero); ncc != 1 {
		t.Errorf("NCC of zeros = %v, want 1", ncc)
	}
	if ncc, _ := NCC(a, zero); ncc != 0 {
		t.Errorf("NCC with one zero = %v, want 0", ncc)
	}
	if _, err := NCC(a, a[:2]); err == nil {
		t.Error("length mismatch accepted")
	}
}

func TestNCCBoundsProperty(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	f := func() bool {
		n := 2 + r.Intn(50)
		a := make([]float64, n)
		b := make([]float64, n)
		for i := range a {
			a[i] = r.NormFloat64()
			b[i] = r.NormFloat64()
		}
		ncc, err := NCC(a, b)
		return err == nil && ncc >= -1.0000001 && ncc <= 1.0000001
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestNormalizeMeanAbs(t *testing.T) {
	x := []float64{2, -4, 6}
	y := NormalizeMeanAbs(x)
	s := 0.0
	for _, v := range y {
		s += math.Abs(v)
	}
	if math.Abs(s/float64(len(y))-1) > 1e-12 {
		t.Errorf("mean abs = %v, want 1", s/float64(len(y)))
	}
	z := NormalizeMeanAbs([]float64{0, 0})
	if z[0] != 0 || z[1] != 0 {
		t.Error("zero signal mangled")
	}
}

// naiveDFT is the O(n²) reference implementation.
func naiveDFT(x []complex128) []complex128 {
	n := len(x)
	out := make([]complex128, n)
	for k := 0; k < n; k++ {
		var s complex128
		for j := 0; j < n; j++ {
			ang := -2 * math.Pi * float64(k) * float64(j) / float64(n)
			s += x[j] * cmplx.Rect(1, ang)
		}
		out[k] = s
	}
	return out
}

func TestCycleAccuracyPerfectAndScaled(t *testing.T) {
	x := []float64{1, 2, -1, 0.5, 3, -2, 1, 1}
	y := make([]float64, len(x))
	for i, v := range x {
		y[i] = 3 * v // pure scaling must not hurt the metric
	}
	acc, err := CycleAccuracy(x, y, 4)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(acc-1) > 1e-12 {
		t.Errorf("accuracy of scaled copy = %v, want 1", acc)
	}
}

func TestCycleAccuracyDetectsDivergence(t *testing.T) {
	r := rand.New(rand.NewSource(5))
	spc := 8
	cycles := 20
	a := make([]float64, spc*cycles)
	for i := range a {
		a[i] = r.NormFloat64()
	}
	b := append([]float64(nil), a...)
	// Corrupt cycles 5..9.
	for c := 5; c < 10; c++ {
		for s := 0; s < spc; s++ {
			b[c*spc+s] = r.NormFloat64()
		}
	}
	acc, err := CycleAccuracy(a, b, spc)
	if err != nil {
		t.Fatal(err)
	}
	if acc > 0.95 || acc < 0.5 {
		t.Errorf("accuracy with 25%% corrupted cycles = %v", acc)
	}
	per, err := PerCycleCorrelation(a, b, spc)
	if err != nil {
		t.Fatal(err)
	}
	for c := 0; c < 5; c++ {
		if per[c] < 0.999 {
			t.Errorf("clean cycle %d correlation = %v", c, per[c])
		}
	}
	worst, at := 2.0, -1
	for c, v := range per {
		if v < worst {
			worst, at = v, c
		}
	}
	if at < 5 || at > 9 {
		t.Errorf("worst cycle at %d, want in [5,9]", at)
	}
}

func TestCycleAccuracyErrors(t *testing.T) {
	if _, err := CycleAccuracy([]float64{1}, []float64{1, 2}, 1); err == nil {
		t.Error("length mismatch accepted")
	}
	if _, err := CycleAccuracy([]float64{1}, []float64{1}, 0); err == nil {
		t.Error("spc=0 accepted")
	}
	if _, err := CycleAccuracy([]float64{1}, []float64{1}, 5); err == nil {
		t.Error("sub-cycle signal accepted")
	}
	if _, err := PerCycleCorrelation([]float64{1}, []float64{1, 2}, 1); err == nil {
		t.Error("PerCycleCorrelation mismatch accepted")
	}
	if _, err := PerCycleCorrelation([]float64{1}, []float64{1}, 0); err == nil {
		t.Error("PerCycleCorrelation spc=0 accepted")
	}
}

func BenchmarkReconstruct(b *testing.B) {
	r := rand.New(rand.NewSource(7))
	x := make([]float64, 1000)
	for i := range x {
		x[i] = r.NormFloat64()
	}
	k := DefaultKernel()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Reconstruct(x, 16, k); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkCycleAccuracy(b *testing.B) {
	r := rand.New(rand.NewSource(8))
	x := make([]float64, 16000)
	y := make([]float64, 16000)
	for i := range x {
		x[i] = r.NormFloat64()
		y[i] = x[i] + 0.1*r.NormFloat64()
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := CycleAccuracy(x, y, 16); err != nil {
			b.Fatal(err)
		}
	}
}
