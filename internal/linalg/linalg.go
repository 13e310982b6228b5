// Package linalg provides the dense linear algebra EMSim's regression
// models need: matrices, Householder-QR least squares, and Cholesky
// factorization. It is deliberately small — just enough numerical
// machinery for the paper's model fitting — and uses no dependencies
// beyond the standard library.
package linalg

import (
	"fmt"
	"math"
)

// Matrix is a dense row-major matrix.
type Matrix struct {
	Rows, Cols int
	Data       []float64 // len == Rows*Cols
}

// NewMatrix allocates a zero Rows×Cols matrix.
func NewMatrix(rows, cols int) *Matrix {
	if rows < 0 || cols < 0 {
		panic(fmt.Sprintf("linalg: negative dimension %dx%d", rows, cols))
	}
	return &Matrix{Rows: rows, Cols: cols, Data: make([]float64, rows*cols)}
}

// FromRows builds a matrix from row slices, which must all share a length.
func FromRows(rows [][]float64) *Matrix {
	if len(rows) == 0 {
		return NewMatrix(0, 0)
	}
	m := NewMatrix(len(rows), len(rows[0]))
	for i, r := range rows {
		if len(r) != m.Cols {
			panic(fmt.Sprintf("linalg: ragged row %d: %d != %d", i, len(r), m.Cols))
		}
		copy(m.Data[i*m.Cols:], r)
	}
	return m
}

// At returns element (i, j).
func (m *Matrix) At(i, j int) float64 { return m.Data[i*m.Cols+j] }

// Set assigns element (i, j).
func (m *Matrix) Set(i, j int, v float64) { m.Data[i*m.Cols+j] = v }

// Clone returns a deep copy.
func (m *Matrix) Clone() *Matrix {
	c := NewMatrix(m.Rows, m.Cols)
	copy(c.Data, m.Data)
	return c
}

// Row returns a view of row i (shared storage).
func (m *Matrix) Row(i int) []float64 { return m.Data[i*m.Cols : (i+1)*m.Cols] }

// T returns the transpose as a new matrix.
func (m *Matrix) T() *Matrix {
	t := NewMatrix(m.Cols, m.Rows)
	for i := 0; i < m.Rows; i++ {
		for j := 0; j < m.Cols; j++ {
			t.Set(j, i, m.At(i, j))
		}
	}
	return t
}

// Mul returns m·b.
func (m *Matrix) Mul(b *Matrix) *Matrix {
	if m.Cols != b.Rows {
		panic(fmt.Sprintf("linalg: mul shape mismatch %dx%d · %dx%d", m.Rows, m.Cols, b.Rows, b.Cols))
	}
	out := NewMatrix(m.Rows, b.Cols)
	for i := 0; i < m.Rows; i++ {
		mi := m.Row(i)
		oi := out.Row(i)
		for k := 0; k < m.Cols; k++ {
			a := mi[k]
			//emsim:ignore floatcmp skipping exactly-zero entries cannot change the product; it only exploits sparsity
			if a == 0 {
				continue
			}
			bk := b.Row(k)
			for j := range oi {
				oi[j] += a * bk[j]
			}
		}
	}
	return out
}

// MulVec returns m·x as a vector.
func (m *Matrix) MulVec(x []float64) []float64 {
	if m.Cols != len(x) {
		panic(fmt.Sprintf("linalg: mulvec shape mismatch %dx%d · %d", m.Rows, m.Cols, len(x)))
	}
	out := make([]float64, m.Rows)
	for i := 0; i < m.Rows; i++ {
		row := m.Row(i)
		s := 0.0
		for j, v := range row {
			s += v * x[j]
		}
		out[i] = s
	}
	return out
}

// Dot returns the inner product of two equal-length vectors.
func Dot(a, b []float64) float64 {
	if len(a) != len(b) {
		panic("linalg: dot length mismatch")
	}
	s := 0.0
	for i := range a {
		s += a[i] * b[i]
	}
	return s
}

// LeastSquares solves min ‖A·x − b‖₂ via Householder QR with column checks.
// A must have Rows >= Cols and full column rank (within eps); otherwise an
// error is returned.
func LeastSquares(a *Matrix, b []float64) ([]float64, error) {
	if a.Rows != len(b) {
		return nil, fmt.Errorf("linalg: A has %d rows but b has %d entries", a.Rows, len(b))
	}
	if a.Rows < a.Cols {
		return nil, fmt.Errorf("linalg: underdetermined system %dx%d", a.Rows, a.Cols)
	}
	m, n := a.Rows, a.Cols
	r := a.Clone()
	y := make([]float64, m)
	copy(y, b)

	// Rank-deficiency tolerance relative to the matrix magnitude.
	scale := 0.0
	for _, v := range a.Data {
		if av := math.Abs(v); av > scale {
			scale = av
		}
	}
	tol := 1e-12 * scale * float64(m)

	// Householder QR, applying reflections to y as we go.
	for k := 0; k < n; k++ {
		// Build the reflector for column k below the diagonal.
		norm := 0.0
		for i := k; i < m; i++ {
			norm = math.Hypot(norm, r.At(i, k))
		}
		if norm <= tol {
			return nil, fmt.Errorf("linalg: rank-deficient matrix (column %d)", k)
		}
		// Choose the reflection sign that moves the pivot away from zero
		// (avoids cancellation in the v_k = 1 + a_kk/norm term).
		if r.At(k, k) < 0 {
			norm = -norm
		}
		for i := k; i < m; i++ {
			r.Set(i, k, r.At(i, k)/norm)
		}
		r.Set(k, k, r.At(k, k)+1)

		// Apply to remaining columns.
		for j := k + 1; j < n; j++ {
			s := 0.0
			for i := k; i < m; i++ {
				s += r.At(i, k) * r.At(i, j)
			}
			s = -s / r.At(k, k)
			for i := k; i < m; i++ {
				r.Set(i, j, r.At(i, j)+s*r.At(i, k))
			}
		}
		// Apply to y.
		s := 0.0
		for i := k; i < m; i++ {
			s += r.At(i, k) * y[i]
		}
		s = -s / r.At(k, k)
		for i := k; i < m; i++ {
			y[i] += s * r.At(i, k)
		}
		r.Set(k, k, -norm) // R's diagonal; the reflector's v is dead now
	}

	// Back-substitute R·x = y[:n]; R's upper triangle (including the
	// just-stored diagonal) lives in r.
	x := make([]float64, n)
	for i := n - 1; i >= 0; i-- {
		s := y[i]
		for j := i + 1; j < n; j++ {
			s -= r.At(i, j) * x[j]
		}
		d := r.At(i, i)
		if math.Abs(d) < 1e-300 {
			return nil, fmt.Errorf("linalg: singular R at %d", i)
		}
		x[i] = s / d
	}
	return x, nil
}

// Cholesky factors a symmetric positive-definite matrix as L·Lᵀ and
// returns L (lower triangular). It errors on non-SPD input.
func Cholesky(a *Matrix) (*Matrix, error) {
	if a.Rows != a.Cols {
		return nil, fmt.Errorf("linalg: cholesky of non-square %dx%d", a.Rows, a.Cols)
	}
	n := a.Rows
	l := NewMatrix(n, n)
	for i := 0; i < n; i++ {
		for j := 0; j <= i; j++ {
			s := a.At(i, j)
			for k := 0; k < j; k++ {
				s -= l.At(i, k) * l.At(j, k)
			}
			if i == j {
				if s <= 0 {
					return nil, fmt.Errorf("linalg: matrix not positive definite at %d (pivot %g)", i, s)
				}
				l.Set(i, i, math.Sqrt(s))
			} else {
				l.Set(i, j, s/l.At(j, j))
			}
		}
	}
	return l, nil
}

// SolveCholesky solves A·x = b for SPD A using a Cholesky factorization.
func SolveCholesky(a *Matrix, b []float64) ([]float64, error) {
	l, err := Cholesky(a)
	if err != nil {
		return nil, err
	}
	n := a.Rows
	if len(b) != n {
		return nil, fmt.Errorf("linalg: b has %d entries, want %d", len(b), n)
	}
	// Forward: L·y = b.
	y := make([]float64, n)
	for i := 0; i < n; i++ {
		s := b[i]
		for k := 0; k < i; k++ {
			s -= l.At(i, k) * y[k]
		}
		y[i] = s / l.At(i, i)
	}
	// Backward: Lᵀ·x = y.
	x := make([]float64, n)
	for i := n - 1; i >= 0; i-- {
		s := y[i]
		for k := i + 1; k < n; k++ {
			s -= l.At(k, i) * x[k]
		}
		x[i] = s / l.At(i, i)
	}
	return x, nil
}
