package signal

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

// TestReconstructLinearity: reconstruction is linear in the amplitudes.
func TestReconstructLinearity(t *testing.T) {
	r := rand.New(rand.NewSource(33))
	k := DefaultKernel()
	spc := 16
	f := func() bool {
		n := 3 + r.Intn(20)
		x := make([]float64, n)
		y := make([]float64, n)
		mix := make([]float64, n)
		a, b := r.NormFloat64(), r.NormFloat64()
		for i := range x {
			x[i] = r.NormFloat64()
			y[i] = r.NormFloat64()
			mix[i] = a*x[i] + b*y[i]
		}
		rx := MustReconstruct(x, spc, k)
		ry := MustReconstruct(y, spc, k)
		rmix := MustReconstruct(mix, spc, k)
		for i := range rmix {
			if math.Abs(rmix[i]-(a*rx[i]+b*ry[i])) > 1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

// TestCycleAccuracySymmetry: the metric is symmetric in its arguments.
func TestCycleAccuracySymmetry(t *testing.T) {
	r := rand.New(rand.NewSource(34))
	a := make([]float64, 160)
	b := make([]float64, 160)
	for i := range a {
		a[i] = r.NormFloat64()
		b[i] = a[i] + 0.3*r.NormFloat64()
	}
	ab, err := CycleAccuracy(a, b, 16)
	if err != nil {
		t.Fatal(err)
	}
	ba, err := CycleAccuracy(b, a, 16)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(ab-ba) > 1e-12 {
		t.Errorf("CycleAccuracy asymmetric: %v vs %v", ab, ba)
	}
}
