// Package linalg provides the dense linear algebra EMSim's regression
// models need: the dot product, Householder-QR least squares over a
// design given as its columns, and a Cholesky solve of flat normal
// equations. It is deliberately small — just enough numerical machinery
// for the paper's model fitting — and uses no dependencies beyond the
// standard library.
package linalg

import (
	"fmt"
	"math"
)

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

// LeastSquares solves min ‖A·x − b‖₂ via Householder QR, with A given as
// its columns, each len(b) entries long. A must have at least as many
// rows as columns and full column rank (within eps); otherwise an error
// is returned. It factors A in place: the columns are overwritten.
//
// The Householder loops walk contiguous columns and apply each reflector
// to four columns per pass over it. Every column's sum still runs in row
// order, so the solution is bit-identical to one column at a time.
func LeastSquares(cols [][]float64, b []float64) ([]float64, error) {
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

// SolveCholesky solves A·x = b for a symmetric positive-definite n×n
// matrix A, given row-major in a; only its lower triangle is read. It
// factors A in place as L·Lᵀ: on return, a's lower triangle holds L. It
// errors on non-SPD input.
func SolveCholesky(n int, a, b []float64) ([]float64, error) {
	if len(a) != n*n {
		return nil, fmt.Errorf("linalg: A has %d entries, want %d×%d", len(a), n, n)
	}
	if len(b) != n {
		return nil, fmt.Errorf("linalg: b has %d entries, want %d", len(b), n)
	}
	for i := 0; i < n; i++ {
		li := a[i*n : i*n+i+1]
		for j := range li {
			lj := a[j*n : j*n+j+1]
			s := li[j]
			for k := 0; k < j; k++ {
				s -= float64(li[k] * lj[k])
			}
			if i == j {
				if s <= 0 {
					return nil, fmt.Errorf("linalg: matrix not positive definite at %d (pivot %g)", i, s)
				}
				li[i] = math.Sqrt(s)
			} else {
				li[j] = s / lj[j]
			}
		}
	}
	// Forward: L·y = b.
	y := make([]float64, n)
	for i := 0; i < n; i++ {
		s := b[i]
		for k := 0; k < i; k++ {
			s -= float64(a[i*n+k] * y[k])
		}
		y[i] = s / a[i*n+i]
	}
	// Backward: Lᵀ·x = y.
	x := make([]float64, n)
	for i := n - 1; i >= 0; i-- {
		s := y[i]
		for k := i + 1; k < n; k++ {
			s -= float64(a[k*n+i] * x[k])
		}
		x[i] = s / a[i*n+i]
	}
	return x, nil
}
