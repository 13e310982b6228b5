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

// columns returns the columns of the matrix given by rows.
func columns(rows [][]float64) [][]float64 {
	cols := make([][]float64, len(rows[0]))
	for j := range cols {
		cols[j] = make([]float64, len(rows))
		for i, row := range rows {
			cols[j][i] = row[j]
		}
	}
	return cols
}

// newColumns returns the n zero columns of an m×n matrix.
func newColumns(m, n int) [][]float64 {
	cols := make([][]float64, n)
	for j := range cols {
		cols[j] = make([]float64, m)
	}
	return cols
}

// cloneColumns deep-copies cols, which LeastSquares overwrites.
func cloneColumns(cols [][]float64) [][]float64 {
	c := make([][]float64, len(cols))
	for j, col := range cols {
		c[j] = append([]float64(nil), col...)
	}
	return c
}

// mulVec returns A·x for A given by its columns.
func mulVec(cols [][]float64, x []float64) []float64 {
	out := make([]float64, len(cols[0]))
	for j, col := range cols {
		for i, v := range col {
			out[i] += v * x[j]
		}
	}
	return out
}

func TestDotAndNorm(t *testing.T) {
	if Dot([]float64{1, 2, 3}, []float64{4, 5, 6}) != 32 {
		t.Error("Dot broken")
	}
}

func TestLeastSquaresExactSolve(t *testing.T) {
	// Square nonsingular system: exact solution.
	a := columns([][]float64{
		{2, 1, 0},
		{1, 3, 1},
		{0, 1, 4},
	})
	want := []float64{1, -2, 3}
	b := mulVec(a, want)
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
	a := [][]float64{make([]float64, len(xs)), make([]float64, len(xs))}
	b := make([]float64, len(xs))
	for i, x := range xs {
		a[0][i] = 1
		a[1][i] = x
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
		a := newColumns(m, n)
		b := make([]float64, m)
		for i := 0; i < m; i++ {
			for j := 0; j < n; j++ {
				a[j][i] = r.NormFloat64()
			}
			b[i] = r.NormFloat64()
		}
		x, err := LeastSquares(cloneColumns(a), b)
		if err != nil {
			t.Fatal(err)
		}
		res := mulVec(a, x)
		for i := range res {
			res[i] -= b[i]
		}
		for j, col := range a {
			if v := Dot(col, res); math.Abs(v) > 1e-8 {
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
		a := newColumns(m, n)
		for i := 0; i < m; i++ {
			for j := 0; j < n; j++ {
				a[j][i] = r.NormFloat64()
			}
		}
		want := make([]float64, n)
		for j := range want {
			want[j] = r.NormFloat64() * 10
		}
		b := mulVec(a, want)
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
	if _, err := LeastSquares(columns([][]float64{{0, 0, 0}, {0, 0, 0}}), []float64{1, 2}); err == nil {
		t.Error("underdetermined accepted")
	}
	if _, err := LeastSquares(columns([][]float64{{0, 0}, {0, 0}, {0, 0}}), []float64{1, 2}); err == nil {
		t.Error("shape mismatch accepted")
	}
	// Rank-deficient: duplicate columns.
	if _, err := LeastSquares(columns([][]float64{{1, 1}, {2, 2}, {3, 3}}), []float64{1, 2, 3}); err == nil {
		t.Error("rank-deficient accepted")
	}
}

// spd3 is a symmetric positive-definite 3×3 matrix, row-major.
var spd3 = []float64{
	4, 2, 2,
	2, 5, 3,
	2, 3, 6,
}

// mulSquare returns A·x for a row-major n×n matrix a.
func mulSquare(a, x []float64) []float64 {
	n := len(x)
	out := make([]float64, n)
	for i := range out {
		out[i] = Dot(a[i*n:(i+1)*n], x)
	}
	return out
}

func TestCholesky(t *testing.T) {
	// The solve leaves L in a's lower triangle; L·Lᵀ must reproduce A.
	a := append([]float64(nil), spd3...)
	if _, err := SolveCholesky(3, a, []float64{1, 1, 1}); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		for j := 0; j <= i; j++ {
			llt := 0.0
			for k := 0; k <= j; k++ {
				llt += a[i*3+k] * a[j*3+k]
			}
			if !almostEqual(llt, spd3[i*3+j], 1e-9) {
				t.Errorf("LLᵀ[%d][%d] = %v, want %v", i, j, llt, spd3[i*3+j])
			}
		}
	}
	// Only the lower triangle is read.
	upperless := append([]float64(nil), spd3...)
	upperless[1], upperless[2], upperless[5] = 0, 0, 0
	want := []float64{1, 2, -1}
	got, err := SolveCholesky(3, upperless, mulSquare(spd3, want))
	if err != nil {
		t.Fatal(err)
	}
	if !vecAlmostEqual(got, want, 1e-9) {
		t.Errorf("solution from the lower triangle = %v, want %v", got, want)
	}
}

func TestCholeskyRejectsNonSPD(t *testing.T) {
	if _, err := SolveCholesky(2, []float64{1, 2, 2, 1}, []float64{1, 1}); err == nil {
		t.Error("indefinite matrix accepted")
	}
	if _, err := SolveCholesky(2, make([]float64, 6), []float64{1, 1}); err == nil {
		t.Error("non-square accepted")
	}
}

func TestSolveCholesky(t *testing.T) {
	want := []float64{1, 2, -1}
	b := mulSquare(spd3, want)
	got, err := SolveCholesky(3, append([]float64(nil), spd3...), b)
	if err != nil {
		t.Fatal(err)
	}
	if !vecAlmostEqual(got, want, 1e-9) {
		t.Errorf("solution = %v, want %v", got, want)
	}
	if _, err := SolveCholesky(3, append([]float64(nil), spd3...), []float64{1}); err == nil {
		t.Error("bad b length accepted")
	}
}

func TestQRAgreesWithCholeskyOnNormalEquations(t *testing.T) {
	// For a well-conditioned system, QR least squares and the normal
	// equations (AᵀA x = Aᵀb via Cholesky) must agree.
	r := rand.New(rand.NewSource(5))
	m, n := 40, 6
	a := newColumns(m, n)
	b := make([]float64, m)
	for i := 0; i < m; i++ {
		for j := 0; j < n; j++ {
			a[j][i] = r.NormFloat64()
		}
		b[i] = r.NormFloat64()
	}
	ata := make([]float64, n*n)
	atb := make([]float64, n)
	for i, ci := range a {
		for j, cj := range a {
			ata[i*n+j] = Dot(ci, cj)
		}
		atb[i] = Dot(ci, b)
	}
	x1, err := LeastSquares(a, b)
	if err != nil {
		t.Fatal(err)
	}
	x2, err := SolveCholesky(n, ata, atb)
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
	a := newColumns(m, n)
	rhs := make([]float64, m)
	for i := 0; i < m; i++ {
		for j := 0; j < n; j++ {
			a[j][i] = r.NormFloat64()
		}
		rhs[i] = r.NormFloat64()
	}
	work := cloneColumns(a)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for j := range work {
			copy(work[j], a[j])
		}
		if _, err := LeastSquares(work, rhs); err != nil {
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
	a := newColumns(m, n)
	rhs := make([]float64, m)
	for j := 0; j < n; j++ {
		density := 0.02 + 0.4*r.Float64()
		for i := 0; i < m; i++ {
			if j == 0 || r.Float64() < density {
				a[j][i] = 1
			}
		}
	}
	for i := range rhs {
		rhs[i] = r.NormFloat64()
	}
	work := cloneColumns(a)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for j := range work {
			copy(work[j], a[j])
		}
		if _, err := LeastSquares(work, rhs); err != nil {
			b.Fatal(err)
		}
	}
}
