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
				oi[j] += float64(a * bk[j])
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
			s += float64(v * x[j])
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
		s += float64(a[i] * b[i])
	}
	return s
}

// LeastSquares solves min ‖A·x − b‖₂ via Householder QR with column checks.
// A must have Rows >= Cols and full column rank (within eps); otherwise an
// error is returned. The solve runs on a column-major copy of A (see
// LeastSquaresColumns).
func LeastSquares(a *Matrix, b []float64) ([]float64, error) {
	if a.Rows != len(b) {
		return nil, fmt.Errorf("linalg: A has %d rows but b has %d entries", a.Rows, len(b))
	}
	m := a.Rows
	buf := make([]float64, m*a.Cols)
	cols := make([][]float64, a.Cols)
	for j := range cols {
		col := buf[j*m : (j+1)*m : (j+1)*m]
		for i := range col {
			col[i] = a.At(i, j)
		}
		cols[j] = col
	}
	return LeastSquaresColumns(cols, b)
}

// LeastSquaresColumns is LeastSquares with A given as its columns, each
// len(b) entries long. It factors A in place: the columns are
// overwritten.
//
// The Householder loops walk contiguous columns and apply each reflector
// to four columns per pass over it. Every column's sum still runs in row
// order, so the solution is bit-identical to one column at a time.
func LeastSquaresColumns(cols [][]float64, b []float64) ([]float64, error) {
	m, n := len(b), len(cols)
	for j, col := range cols {
		if len(col) != m {
			return nil, fmt.Errorf("linalg: A has %d rows but b has %d entries (column %d)", len(col), m, j)
		}
	}
	if m < n {
		return nil, fmt.Errorf("linalg: underdetermined system %dx%d", m, n)
	}

	// Rank-deficiency tolerance relative to the matrix magnitude.
	scale := 0.0
	for _, col := range cols {
		for _, v := range col {
			if av := math.Abs(v); av > scale {
				scale = av
			}
		}
	}
	tol := 1e-12 * scale * float64(m)

	// Householder QR; y rides along as one more column, so each
	// reflection reaches it exactly as it reaches A.
	y := append([]float64(nil), b...)
	work := append(cols[:n:n], y)
	for k := 0; k < n; k++ {
		// Build the reflector for column k below the diagonal.
		v := work[k][k:]
		norm := 0.0
		for _, e := range v {
			norm = math.Hypot(norm, e)
		}
		if norm <= tol {
			return nil, fmt.Errorf("linalg: rank-deficient matrix (column %d)", k)
		}
		// Choose the reflection sign that moves the pivot away from zero
		// (avoids cancellation in the v_k = 1 + a_kk/norm term).
		if v[0] < 0 {
			norm = -norm
		}
		for i := range v {
			v[i] /= norm
		}
		v[0]++
		reflect(v, work[k+1:], k)
		v[0] = -norm // R's diagonal; the reflector's v is dead now
	}

	// Back-substitute R·x = y[:n]; R's upper triangle (including the
	// just-stored diagonal) lives in the columns: R[i][j] is cols[j][i].
	x := make([]float64, n)
	for i := n - 1; i >= 0; i-- {
		s := y[i]
		for j := i + 1; j < n; j++ {
			s -= float64(cols[j][i] * x[j])
		}
		d := cols[i][i]
		if math.Abs(d) < 1e-300 {
			return nil, fmt.Errorf("linalg: singular R at %d", i)
		}
		x[i] = s / d
	}
	return x, nil
}

// reflect applies the Householder reflector v, whose pivot v[0] sits on
// row k, to rows k and below of each column: c -= (v·c / v[0])·v. Four
// columns share each pass over v; the tail runs the same sums one column
// at a time.
func reflect(v []float64, cols [][]float64, k int) {
	for ; len(cols) >= 4; cols = cols[4:] {
		c0, c1, c2, c3 := cols[0][k:], cols[1][k:], cols[2][k:], cols[3][k:]
		c0, c1, c2, c3 = c0[:len(v)], c1[:len(v)], c2[:len(v)], c3[:len(v)]
		var s0, s1, s2, s3 float64
		for i, e := range v {
			s0 += float64(e * c0[i])
			s1 += float64(e * c1[i])
			s2 += float64(e * c2[i])
			s3 += float64(e * c3[i])
		}
		s0, s1, s2, s3 = -s0/v[0], -s1/v[0], -s2/v[0], -s3/v[0]
		for i, e := range v {
			c0[i] += float64(s0 * e)
			c1[i] += float64(s1 * e)
			c2[i] += float64(s2 * e)
			c3[i] += float64(s3 * e)
		}
	}
	for _, c := range cols {
		c = c[k:][:len(v)]
		s := 0.0
		for i, e := range v {
			s += float64(e * c[i])
		}
		s = -s / v[0]
		for i, e := range v {
			c[i] += float64(s * e)
		}
	}
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
				s -= float64(l.At(i, k) * l.At(j, k))
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
			s -= float64(l.At(i, k) * y[k])
		}
		y[i] = s / l.At(i, i)
	}
	// Backward: Lᵀ·x = y.
	x := make([]float64, n)
	for i := n - 1; i >= 0; i-- {
		s := y[i]
		for k := i + 1; k < n; k++ {
			s -= float64(l.At(k, i) * x[k])
		}
		x[i] = s / l.At(i, i)
	}
	return x, nil
}
