package linalg

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func almostEqual(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func vecAlmostEqual(a, b []float64, tol float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if !almostEqual(a[i], b[i], tol) {
			return false
		}
	}
	return true
}

func TestMatrixBasics(t *testing.T) {
	m := NewMatrix(2, 3)
	m.Set(0, 0, 1)
	m.Set(1, 2, 5)
	if m.At(0, 0) != 1 || m.At(1, 2) != 5 {
		t.Fatal("At/Set broken")
	}
	c := m.Clone()
	c.Set(0, 0, 9)
	if m.At(0, 0) != 1 {
		t.Error("Clone shares storage")
	}
	tr := m.T()
	if tr.Rows != 3 || tr.Cols != 2 || tr.At(2, 1) != 5 {
		t.Error("transpose broken")
	}
}

func TestFromRowsPanicsOnRagged(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("ragged rows accepted")
		}
	}()
	FromRows([][]float64{{1, 2}, {3}})
}

func TestMatrixMul(t *testing.T) {
	a := FromRows([][]float64{{1, 2}, {3, 4}})
	b := FromRows([][]float64{{5, 6}, {7, 8}})
	c := a.Mul(b)
	want := FromRows([][]float64{{19, 22}, {43, 50}})
	for i := 0; i < 2; i++ {
		for j := 0; j < 2; j++ {
			if c.At(i, j) != want.At(i, j) {
				t.Errorf("c[%d][%d] = %v, want %v", i, j, c.At(i, j), want.At(i, j))
			}
		}
	}
}

func TestMulVec(t *testing.T) {
	a := FromRows([][]float64{{1, 2, 3}, {4, 5, 6}})
	got := a.MulVec([]float64{1, 1, 1})
	if !vecAlmostEqual(got, []float64{6, 15}, 1e-12) {
		t.Errorf("MulVec = %v", got)
	}
}

func TestDotAndNorm(t *testing.T) {
	if Dot([]float64{1, 2, 3}, []float64{4, 5, 6}) != 32 {
		t.Error("Dot broken")
	}
}

func TestLeastSquaresExactSolve(t *testing.T) {
	// Square nonsingular system: exact solution.
	a := FromRows([][]float64{
		{2, 1, 0},
		{1, 3, 1},
		{0, 1, 4},
	})
	want := []float64{1, -2, 3}
	b := a.MulVec(want)
	got, err := LeastSquares(a, b)
	if err != nil {
		t.Fatal(err)
	}
	if !vecAlmostEqual(got, want, 1e-9) {
		t.Errorf("solution = %v, want %v", got, want)
	}
}

func TestLeastSquaresOverdetermined(t *testing.T) {
	// Fit y = 2 + 3x to noisy-free samples: intercept/slope recovered.
	xs := []float64{0, 1, 2, 3, 4, 5}
	a := NewMatrix(len(xs), 2)
	b := make([]float64, len(xs))
	for i, x := range xs {
		a.Set(i, 0, 1)
		a.Set(i, 1, x)
		b[i] = 2 + 3*x
	}
	got, err := LeastSquares(a, b)
	if err != nil {
		t.Fatal(err)
	}
	if !vecAlmostEqual(got, []float64{2, 3}, 1e-9) {
		t.Errorf("fit = %v, want [2 3]", got)
	}
}

func TestLeastSquaresResidualOrthogonality(t *testing.T) {
	// The residual of a least-squares solution must be orthogonal to the
	// column space: Aᵀ(Ax − b) ≈ 0.
	r := rand.New(rand.NewSource(3))
	for trial := 0; trial < 20; trial++ {
		m, n := 30, 5
		a := NewMatrix(m, n)
		b := make([]float64, m)
		for i := 0; i < m; i++ {
			for j := 0; j < n; j++ {
				a.Set(i, j, r.NormFloat64())
			}
			b[i] = r.NormFloat64()
		}
		x, err := LeastSquares(a, b)
		if err != nil {
			t.Fatal(err)
		}
		res := a.MulVec(x)
		for i := range res {
			res[i] -= b[i]
		}
		atr := a.T().MulVec(res)
		for j, v := range atr {
			if math.Abs(v) > 1e-8 {
				t.Fatalf("trial %d: residual not orthogonal: (Aᵀr)[%d] = %g", trial, j, v)
			}
		}
	}
}

func TestLeastSquaresRecoversRandomModel(t *testing.T) {
	// quick.Check-style property: for random well-conditioned systems with
	// exact data, the planted coefficients are recovered.
	r := rand.New(rand.NewSource(11))
	f := func() bool {
		n := 2 + r.Intn(6)
		m := n + 5 + r.Intn(20)
		a := NewMatrix(m, n)
		for i := 0; i < m; i++ {
			for j := 0; j < n; j++ {
				a.Set(i, j, r.NormFloat64())
			}
		}
		want := make([]float64, n)
		for j := range want {
			want[j] = r.NormFloat64() * 10
		}
		b := a.MulVec(want)
		got, err := LeastSquares(a, b)
		if err != nil {
			return false
		}
		return vecAlmostEqual(got, want, 1e-6)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestLeastSquaresErrors(t *testing.T) {
	a := NewMatrix(2, 3)
	if _, err := LeastSquares(a, []float64{1, 2}); err == nil {
		t.Error("underdetermined accepted")
	}
	a = NewMatrix(3, 2)
	if _, err := LeastSquares(a, []float64{1, 2}); err == nil {
		t.Error("shape mismatch accepted")
	}
	// Rank-deficient: duplicate columns.
	a = FromRows([][]float64{{1, 1}, {2, 2}, {3, 3}})
	if _, err := LeastSquares(a, []float64{1, 2, 3}); err == nil {
		t.Error("rank-deficient accepted")
	}
}

func TestCholesky(t *testing.T) {
	a := FromRows([][]float64{
		{4, 2, 2},
		{2, 5, 3},
		{2, 3, 6},
	})
	l, err := Cholesky(a)
	if err != nil {
		t.Fatal(err)
	}
	// L·Lᵀ must reproduce A.
	llt := l.Mul(l.T())
	for i := 0; i < 3; i++ {
		for j := 0; j < 3; j++ {
			if !almostEqual(llt.At(i, j), a.At(i, j), 1e-9) {
				t.Errorf("LLᵀ[%d][%d] = %v, want %v", i, j, llt.At(i, j), a.At(i, j))
			}
		}
	}
}

func TestCholeskyRejectsNonSPD(t *testing.T) {
	if _, err := Cholesky(FromRows([][]float64{{1, 2}, {2, 1}})); err == nil {
		t.Error("indefinite matrix accepted")
	}
	if _, err := Cholesky(NewMatrix(2, 3)); err == nil {
		t.Error("non-square accepted")
	}
}

func TestSolveCholesky(t *testing.T) {
	a := FromRows([][]float64{
		{4, 2, 2},
		{2, 5, 3},
		{2, 3, 6},
	})
	want := []float64{1, 2, -1}
	b := a.MulVec(want)
	got, err := SolveCholesky(a, b)
	if err != nil {
		t.Fatal(err)
	}
	if !vecAlmostEqual(got, want, 1e-9) {
		t.Errorf("solution = %v, want %v", got, want)
	}
	if _, err := SolveCholesky(a, []float64{1}); err == nil {
		t.Error("bad b length accepted")
	}
}

func TestQRAgreesWithCholeskyOnNormalEquations(t *testing.T) {
	// For a well-conditioned system, QR least squares and the normal
	// equations (AᵀA x = Aᵀb via Cholesky) must agree.
	r := rand.New(rand.NewSource(5))
	m, n := 40, 6
	a := NewMatrix(m, n)
	b := make([]float64, m)
	for i := 0; i < m; i++ {
		for j := 0; j < n; j++ {
			a.Set(i, j, r.NormFloat64())
		}
		b[i] = r.NormFloat64()
	}
	x1, err := LeastSquares(a, b)
	if err != nil {
		t.Fatal(err)
	}
	at := a.T()
	x2, err := SolveCholesky(at.Mul(a), at.MulVec(b))
	if err != nil {
		t.Fatal(err)
	}
	if !vecAlmostEqual(x1, x2, 1e-6) {
		t.Errorf("QR %v vs normal equations %v", x1, x2)
	}
}

func BenchmarkLeastSquares100x20(b *testing.B) {
	r := rand.New(rand.NewSource(1))
	m, n := 100, 20
	a := NewMatrix(m, n)
	rhs := make([]float64, m)
	for i := 0; i < m; i++ {
		for j := 0; j < n; j++ {
			a.Set(i, j, r.NormFloat64())
		}
		rhs[i] = r.NormFloat64()
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := LeastSquares(a, rhs); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkLeastSquaresTrainingShape solves the activity fit's final
// refit at its 80-bit cap: 3,957 rows of an intercept and 80 0/1
// columns.
func BenchmarkLeastSquaresTrainingShape(b *testing.B) {
	r := rand.New(rand.NewSource(3))
	m, n := 3957, 81
	a := NewMatrix(m, n)
	rhs := make([]float64, m)
	for j := 0; j < n; j++ {
		density := 0.02 + 0.4*r.Float64()
		for i := 0; i < m; i++ {
			if j == 0 || r.Float64() < density {
				a.Set(i, j, 1)
			}
		}
	}
	for i := range rhs {
		rhs[i] = r.NormFloat64()
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := LeastSquares(a, rhs); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkMatMul64(b *testing.B) {
	r := rand.New(rand.NewSource(2))
	a := NewMatrix(64, 64)
	c := NewMatrix(64, 64)
	for i := range a.Data {
		a.Data[i] = r.NormFloat64()
		c.Data[i] = r.NormFloat64()
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		a.Mul(c)
	}
}
