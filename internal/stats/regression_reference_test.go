package stats

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"emsim/internal/linalg"
)

// referenceStepwise is StepwiseRegression as it was before the scan was
// fused into the Gram-Schmidt update: each step scores every candidate
// with its own pass over vc[c]·r, then projects, subtracts and re-norms
// each remaining candidate in three more, one column at a time, on one
// goroutine. It is the oracle TestStepwiseMatchesReference holds the
// blocked, parallel update to, bit for bit. Every product is rounded
// before it is summed, as in the production code, so the oracle holds on
// platforms that fuse multiply-adds too.
func referenceStepwise(x [][]float64, y []float64, opts StepwiseOptions) (*StepwiseResult, error) {
	n := len(x)
	if n == 0 || n != len(y) {
		return nil, fmt.Errorf("stats: stepwise needs matching nonempty X (%d) and y (%d)", n, len(y))
	}
	p := len(x[0])
	maxSel := p
	if opts.MaxPredictors > 0 && opts.MaxPredictors < maxSel {
		maxSel = opts.MaxPredictors
	}
	if lim := n - 2; maxSel > lim {
		maxSel = lim // keep at least one residual degree of freedom
	}
	fScale := opts.FEnter
	//emsim:ignore floatcmp zero is the unset-option sentinel, written literally, never computed
	if fScale == 0 {
		fScale = 1
	}

	// The intercept is the first basis direction; the residual r tracks y
	// minus its projection onto the model so far, and vc[c] tracks each
	// candidate column minus its projection onto the same span. Both are
	// updated in place as columns enter the model.
	q0 := 1 / math.Sqrt(float64(n))
	r := append([]float64(nil), y...)
	g0 := 0.0
	for _, v := range r {
		g0 += float64(v * q0)
	}
	for i := range r {
		r[i] -= float64(g0 * q0)
	}
	rssCur := linalg.Dot(r, r)

	colNorm2 := make([]float64, p) // original norms, the collinearity yardstick
	vc := make([][]float64, p)
	vcNorm2 := make([]float64, p)
	for c := 0; c < p; c++ {
		v := make([]float64, n)
		for i, row := range x {
			if len(row) != p {
				return nil, fmt.Errorf("stats: ragged feature row %d", i)
			}
			v[i] = row[c]
		}
		colNorm2[c] = linalg.Dot(v, v)
		g := 0.0
		for _, e := range v {
			g += float64(e * q0)
		}
		for i := range v {
			v[i] -= float64(g * q0)
		}
		vc[c] = v
		vcNorm2[c] = linalg.Dot(v, v)
	}

	selected := []int{}
	inModel := make([]bool, p)
	for len(selected) < maxSel {
		df2 := n - len(selected) - 2 // residual dof after adding one more
		if df2 < 1 {
			break
		}
		crit := fCriticalApprox(df2) * fScale
		bestCol, bestDelta := -1, 0.0
		for c := 0; c < p; c++ {
			if inModel[c] {
				continue
			}
			// vcNorm2 is a sum of squares, so it is <= 0 only when exactly
			// zero — the tolerance test alone covers the all-zero column.
			if vcNorm2[c] <= 1e-12*colNorm2[c] {
				continue // (near-)collinear with the current model
			}
			g := linalg.Dot(vc[c], r)
			delta := g * g / vcNorm2[c]
			if delta > bestDelta {
				bestCol, bestDelta = c, delta
			}
		}
		if bestCol < 0 {
			break
		}
		denom := (rssCur - bestDelta) / float64(df2)
		if denom <= 0 {
			// Perfect fit: accept the column and stop.
			selected = append(selected, bestCol)
			break
		}
		if bestDelta/denom < crit {
			break
		}
		selected = append(selected, bestCol)
		inModel[bestCol] = true
		// The winner, normalized, is the next basis direction; fold it out
		// of the residual and every remaining candidate (modified
		// Gram-Schmidt step), then refresh the candidate norms.
		q := vc[bestCol]
		inv := 1 / math.Sqrt(vcNorm2[bestCol])
		for i := range q {
			q[i] *= inv
		}
		g := linalg.Dot(q, r)
		for i := range r {
			r[i] -= float64(g * q[i])
		}
		rssCur -= bestDelta
		if rssCur < 0 {
			rssCur = 0
		}
		for c := 0; c < p; c++ {
			if inModel[c] || vcNorm2[c] <= 1e-12*colNorm2[c] {
				continue
			}
			v := vc[c]
			gc := linalg.Dot(q, v)
			for i := range v {
				v[i] -= float64(gc * q[i])
			}
			vcNorm2[c] = linalg.Dot(v, v)
		}
	}

	sub := make([][]float64, n)
	for i, row := range x {
		s := make([]float64, len(selected))
		for k, c := range selected {
			s[k] = row[c]
		}
		sub[i] = s
	}
	model, err := LinearRegression(len(selected), rowColumn(sub), y)
	if err != nil {
		return nil, err
	}
	return &StepwiseResult{Selected: selected, Model: model, Dropped: p - len(selected)}, nil
}

// stepwiseProblem draws one seeded selection problem mixing the column
// kinds the activity fit sees: 0/1 transition bits, Gaussian columns and
// near-duplicates of earlier columns (a tiny perturbation, an exact copy
// or a scaled copy), with a sparse target over a few of them. About a
// third of the problems have more candidates than samples.
func stepwiseProblem(seed int64) ([][]float64, []float64, StepwiseOptions) {
	rng := rand.New(rand.NewSource(seed))
	n := 12 + rng.Intn(70)
	p := 4 + rng.Intn(48)
	cols := make([][]float64, p)
	for c := range cols {
		col := make([]float64, n)
		switch kind := rng.Intn(4); {
		case kind == 3 && c > 0:
			src := cols[rng.Intn(c)]
			eps := [...]float64{0, 1e-9, 1e-13}[rng.Intn(3)]
			scale := [...]float64{1, -1, 2.5}[rng.Intn(3)]
			for i := range col {
				col[i] = scale*src[i] + eps*rng.NormFloat64()
			}
		case kind == 2:
			for i := range col {
				col[i] = rng.NormFloat64()
			}
		default:
			for i := range col {
				col[i] = float64(rng.Intn(2))
			}
		}
		cols[c] = col
	}
	x := make([][]float64, n)
	for i := range x {
		row := make([]float64, p)
		for c := range row {
			row[c] = cols[c][i]
		}
		x[i] = row
	}
	y := make([]float64, n)
	for k := 0; k < 1+rng.Intn(5); k++ {
		c, w := rng.Intn(p), 3*rng.NormFloat64()
		for i := range y {
			y[i] += w * cols[c][i]
		}
	}
	for i := range y {
		y[i] += 0.3 * rng.NormFloat64()
	}
	var opts StepwiseOptions
	if seed%2 == 1 {
		opts.MaxPredictors = 1 + rng.Intn(p)
	}
	if seed%3 == 2 {
		opts.FEnter = 0.25
	}
	return x, y, opts
}

func sameBits(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

// TestStepwiseMatchesReference holds the blocked stepwise update to the
// four-pass reference: same selection, and bit-equal coefficients and
// intercept, on seeded problems with and without MaxPredictors, with the
// update inline (width 1) and split across two and three goroutines.
// Problems start at four candidates, so late steps run with fewer live
// columns than workers.
func TestStepwiseMatchesReference(t *testing.T) {
	const problems = 96
	for _, width := range []int{1, 2, 3} {
		multi := 0
		for seed := int64(0); seed < problems; seed++ {
			x, y, opts := stepwiseProblem(seed)
			want, wantErr := referenceStepwise(x, y, opts)
			opts.Workers = width
			got, gotErr := stepwiseRows(x, y, opts)
			if (gotErr == nil) != (wantErr == nil) {
				t.Fatalf("width %d seed %d: error %v, reference error %v", width, seed, gotErr, wantErr)
			}
			if gotErr != nil {
				continue
			}
			if !equalInts(got.Selected, want.Selected) {
				t.Fatalf("width %d seed %d: selected %v, reference %v", width, seed, got.Selected, want.Selected)
			}
			if !sameBits(got.Model.Coef, want.Model.Coef) ||
				math.Float64bits(got.Model.Intercept) != math.Float64bits(want.Model.Intercept) {
				t.Fatalf("width %d seed %d: fit (%v, %v), reference (%v, %v)", width, seed,
					got.Model.Intercept, got.Model.Coef, want.Model.Intercept, want.Model.Coef)
			}
			if got.Dropped != want.Dropped {
				t.Fatalf("width %d seed %d: dropped %d, reference %d", width, seed, got.Dropped, want.Dropped)
			}
			if len(got.Selected) >= 2 {
				multi++
			}
		}
		// The comparison is only meaningful if most problems run several
		// Gram-Schmidt updates.
		if multi < problems/2 {
			t.Errorf("width %d: only %d of %d problems selected two or more columns", width, multi, problems)
		}
	}
}
