package linalg

import (
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"
)

// referenceLeastSquares is LeastSquares as it was before the solve moved
// to contiguous columns: the same Householder loops over a row-major
// copy of A, given as its rows, one column per pass. Every product is
// rounded before it is summed, as in LeastSquares, so the oracle holds
// on platforms that fuse multiply-adds too. TestLeastSquaresMatchesReference
// holds the column-major solve to it bit for bit.
func referenceLeastSquares(a [][]float64, b []float64) ([]float64, error) {
	if len(a) != len(b) {
		return nil, fmt.Errorf("linalg: A has %d rows but b has %d entries", len(a), len(b))
	}
	m, n := len(a), len(a[0])
	if m < n {
		return nil, fmt.Errorf("linalg: underdetermined system %dx%d", m, n)
	}
	r := make([][]float64, m)
	for i, row := range a {
		r[i] = append([]float64(nil), row...)
	}
	y := make([]float64, m)
	copy(y, b)

	scale := 0.0
	for _, row := range a {
		for _, v := range row {
			if av := math.Abs(v); av > scale {
				scale = av
			}
		}
	}
	tol := 1e-12 * scale * float64(m)

	for k := 0; k < n; k++ {
		norm := 0.0
		for i := k; i < m; i++ {
			norm = math.Hypot(norm, r[i][k])
		}
		if norm <= tol {
			return nil, fmt.Errorf("linalg: rank-deficient matrix (column %d)", k)
		}
		if r[k][k] < 0 {
			norm = -norm
		}
		for i := k; i < m; i++ {
			r[i][k] /= norm
		}
		r[k][k]++

		for j := k + 1; j < n; j++ {
			s := 0.0
			for i := k; i < m; i++ {
				s += float64(r[i][k] * r[i][j])
			}
			s = -s / r[k][k]
			for i := k; i < m; i++ {
				r[i][j] += float64(s * r[i][k])
			}
		}
		s := 0.0
		for i := k; i < m; i++ {
			s += float64(r[i][k] * y[i])
		}
		s = -s / r[k][k]
		for i := k; i < m; i++ {
			y[i] += float64(s * r[i][k])
		}
		r[k][k] = -norm
	}

	x := make([]float64, n)
	for i := n - 1; i >= 0; i-- {
		s := y[i]
		for j := i + 1; j < n; j++ {
			s -= float64(r[i][j] * x[j])
		}
		d := r[i][i]
		if math.Abs(d) < 1e-300 {
			return nil, fmt.Errorf("linalg: singular R at %d", i)
		}
		x[i] = s / d
	}
	return x, nil
}

// lsProblem draws a seeded m×n system whose columns are the kinds the
// regression fits see: an intercept, 0/1 indicators of varied density,
// Gaussian columns and, when nearCollinear is set, columns that repeat an
// earlier one up to a 1e-9 perturbation. A is returned as its rows.
func lsProblem(seed int64, m, n int, nearCollinear bool) ([][]float64, []float64) {
	rng := rand.New(rand.NewSource(seed))
	a := make([][]float64, m)
	for i := range a {
		a[i] = make([]float64, n)
	}
	for j := 0; j < n; j++ {
		kind := rng.Intn(3)
		if j == 0 {
			kind = -1
		}
		src := rng.Intn(j + 1)
		density := 0.05 + 0.5*rng.Float64()
		for i := 0; i < m; i++ {
			var v float64
			switch {
			case kind == -1:
				v = 1
			case nearCollinear && j > 0 && j%5 == 0:
				v = a[i][src] + 1e-9*rng.NormFloat64()
			case kind == 0 && rng.Float64() < density:
				v = 1
			case kind == 1:
				v = rng.NormFloat64()
			case kind == 2:
				v = 3 * rng.NormFloat64()
			}
			a[i][j] = v
		}
	}
	b := make([]float64, m)
	for i := range b {
		b[i] = 0.1 * rng.NormFloat64()
		for j := 0; j < n; j += 3 {
			b[i] += a[i][j] * float64(j%7-3)
		}
	}
	return a, b
}

func requireSameSolve(t *testing.T, name string, a [][]float64, b []float64) {
	t.Helper()
	want, wantErr := referenceLeastSquares(a, b)
	got, gotErr := LeastSquares(columns(a), b)
	if (gotErr == nil) != (wantErr == nil) || (gotErr != nil && gotErr.Error() != wantErr.Error()) {
		t.Fatalf("%s: error %v, reference error %v", name, gotErr, wantErr)
	}
	if len(got) != len(want) {
		t.Fatalf("%s: %d coefficients, reference %d", name, len(got), len(want))
	}
	for j := range got {
		if math.Float64bits(got[j]) != math.Float64bits(want[j]) {
			t.Fatalf("%s: x[%d] = %v, reference %v", name, j, got[j], want[j])
		}
	}
}

// TestLeastSquaresMatchesReference holds the column-major, four-column
// Householder solve to the row-major reference bit for bit: on square,
// tall, training-shaped (3,957×81, the activity refit at its 80-bit cap)
// and near-collinear systems, and on the rank-deficient and singular
// inputs, whose errors must read the same.
func TestLeastSquaresMatchesReference(t *testing.T) {
	shapes := []struct {
		m, n          int
		nearCollinear bool
	}{
		{1, 1, false}, {5, 5, false}, {12, 12, false}, {9, 9, true},
		{30, 7, false}, {100, 20, false}, {64, 13, true}, {200, 31, true},
		{3957, 81, false},
	}
	for _, sh := range shapes {
		for seed := int64(0); seed < 3; seed++ {
			a, b := lsProblem(seed, sh.m, sh.n, sh.nearCollinear)
			requireSameSolve(t, fmt.Sprintf("%dx%d collinear=%v seed %d", sh.m, sh.n, sh.nearCollinear, seed), a, b)
		}
	}

	// Rank deficiency is found at the same column, with the same words.
	dup := [][]float64{{1, 2, 2}, {1, 3, 3}, {1, 5, 5}, {1, 7, 7}}
	requireSameSolve(t, "duplicate column", dup, []float64{1, 2, 3, 4})
	if _, err := LeastSquares(columns(dup), []float64{1, 2, 3, 4}); err == nil || !strings.Contains(err.Error(), "rank-deficient matrix (column 2)") {
		t.Errorf("duplicate column: err = %v, want rank-deficient at column 2", err)
	}
	// Entries so small that the pivot passes the relative rank tolerance
	// but R's diagonal is below 1e-300: the singular-R error.
	tiny := [][]float64{{1e-305}, {2e-305}}
	requireSameSolve(t, "tiny pivot", tiny, []float64{1, 2})
	if _, err := LeastSquares(columns(tiny), []float64{1, 2}); err == nil || err.Error() != "linalg: singular R at 0" {
		t.Errorf("tiny pivot: err = %v, want singular R at 0", err)
	}
}
