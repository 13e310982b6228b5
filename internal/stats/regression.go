package stats

import (
	"context"
	"fmt"
	"math"
	"runtime"

	"emsim/internal/linalg"
	"emsim/internal/par"
)

// RegressionResult holds a fitted linear model y ≈ Intercept + X·Coef.
type RegressionResult struct {
	Intercept float64
	Coef      []float64 // one per predictor column
	// R2 is the coefficient of determination on the training data.
	R2 float64
	// RSS is the residual sum of squares.
	RSS float64
	// N and P are the sample and predictor counts.
	N, P int
}

// LinearRegression fits y ≈ δ + X·c by ordinary least squares, the model
// form of Equ. 8 and Equ. 9 in the paper, over p predictor columns of
// len(y) samples that col fills on demand: col(c, dst) must write every
// entry of dst with predictor c. It fills each column twice: once into
// the column-major design the solve consumes, and once to score the fit.
func LinearRegression(p int, col func(c int, dst []float64), y []float64) (*RegressionResult, error) {
	n := len(y)
	buf := make([]float64, n*(p+1))
	a := make([][]float64, p+1)
	for j := range a {
		a[j] = buf[j*n : (j+1)*n : (j+1)*n]
	}
	for i := range a[0] {
		a[0][i] = 1 // intercept column
	}
	for j := 1; j <= p; j++ {
		col(j-1, a[j])
	}
	beta, err := linalg.LeastSquares(a, y)
	if err != nil {
		return nil, fmt.Errorf("stats: regression solve: %w", err)
	}
	res := &RegressionResult{Intercept: beta[0], Coef: beta[1:], N: n, P: p}

	// fit[i] is the model evaluated on sample i, summed a column at a
	// time: the intercept, then each coefficient times its predictor.
	fit := make([]float64, n)
	for i := range fit {
		fit[i] = res.Intercept
	}
	xc := make([]float64, n)
	for j, c := range res.Coef {
		col(j, xc)
		for i, v := range xc {
			fit[i] += float64(c * v)
		}
	}
	ybar := Mean(y)
	var rss, tss float64
	for i, v := range y {
		e := v - fit[i]
		rss += float64(e * e)
		d := v - ybar
		tss += float64(d * d)
	}
	res.RSS = rss
	if tss > 0 {
		res.R2 = 1 - rss/tss
	} else {
		res.R2 = 1 // constant target perfectly fit by intercept
	}
	return res, nil
}

// StepwiseResult describes a stepwise-selected linear model.
type StepwiseResult struct {
	// Selected lists the chosen predictor column indices, in selection
	// order.
	Selected []int
	// Model is the final fit over the selected columns (coefficients are
	// ordered like Selected).
	Model *RegressionResult
	// Dropped is the number of candidate predictors not selected — the
	// ">65% reduction of T" the paper reports for its processor.
	Dropped int
}

// fCriticalApprox returns an approximate critical value for an F(1, df2)
// test at the 5% level. For df2 ≥ 30 it is close to 4.0, rising for small
// samples; this matches the standard F tables well enough for variable
// selection purposes.
func fCriticalApprox(df2 int) float64 {
	switch {
	case df2 <= 1:
		return 161.4
	case df2 <= 2:
		return 18.5
	case df2 <= 3:
		return 10.1
	case df2 <= 4:
		return 7.7
	case df2 <= 5:
		return 6.6
	case df2 <= 7:
		return 5.6
	case df2 <= 10:
		return 4.96
	case df2 <= 15:
		return 4.54
	case df2 <= 20:
		return 4.35
	case df2 <= 30:
		return 4.17
	case df2 <= 60:
		return 4.00
	case df2 <= 120:
		return 3.92
	default:
		return 3.84
	}
}

// StepwiseOptions tunes StepwiseRegression.
type StepwiseOptions struct {
	// MaxPredictors caps how many columns may be selected (0 = no cap
	// beyond the degrees of freedom).
	MaxPredictors int
	// FEnter scales the F-to-enter threshold; 0 means 1.0 (the 5% level).
	FEnter float64
	// Workers is how many goroutines share each step's candidate update:
	// 0 selects GOMAXPROCS, and 1 runs the update inline. The result is
	// bit-identical at every width.
	Workers int
}

// StepwiseRegression performs forward stepwise selection with an
// F-to-enter test (§III-B): starting from the intercept-only model it
// repeatedly adds the candidate predictor with the largest F statistic, as
// long as that statistic exceeds the critical value. This is how the paper
// prunes the transition-bit vector T by more than 65% without losing
// accuracy. The p candidates are columns of len(y) samples that col
// fills, as for LinearRegression; col is called once per candidate to set
// up, and twice per selected column for the final refit. A cancelled ctx
// stops the selection at its next step.
//
// Every candidate column is kept residualized against the selected set
// (incremental modified Gram-Schmidt): when a column enters the model,
// each remaining candidate is orthogonalized against it once, so a full
// selection pass costs O(n·p·k) rather than the O(n·p·k²) of
// re-orthogonalizing every candidate from scratch at every step; the same
// pass refreshes each candidate's dot product with the residual, so the
// scan needs no pass of its own. That update runs on opts.Workers
// goroutines (see foldAll). The scores are exactly the OLS
// residual-sum-of-squares reductions, and ties break toward the lowest
// column index, so the selection is deterministic.
func StepwiseRegression(ctx context.Context, p int, col func(c int, dst []float64), y []float64, opts StepwiseOptions) (*StepwiseResult, error) {
	n := len(y)
	if n == 0 {
		return nil, fmt.Errorf("stats: stepwise needs a nonempty y")
	}
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
	width := opts.Workers
	if width <= 0 {
		width = runtime.GOMAXPROCS(0)
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

	// live lists, in ascending order, the candidates that may still
	// enter. One that enters, or whose residual norm falls to the
	// collinearity tolerance, leaves for good: its column is never
	// updated again, so the test that dropped it would drop it at every
	// later step.
	colNorm2 := make([]float64, p) // original norms, the collinearity yardstick
	vc := make([][]float64, p)
	vcNorm2 := make([]float64, p)
	gr := make([]float64, p) // gr[c] = vc[c]·r, the scan's numerator
	live := make([]int, 0, p)
	v := make([]float64, n)
	for c := 0; c < p; c++ {
		col(c, v)
		colNorm2[c] = linalg.Dot(v, v)
		g := 0.0
		for _, e := range v {
			g += float64(e * q0)
		}
		for i := range v {
			v[i] -= float64(g * q0)
		}
		vcNorm2[c] = linalg.Dot(v, v)
		// vcNorm2 is a sum of squares, so it is <= 0 only when exactly
		// zero — the tolerance test alone covers the all-zero column.
		if vcNorm2[c] <= 1e-12*colNorm2[c] {
			continue // collinear with the intercept; v takes the next candidate
		}
		gr[c] = linalg.Dot(v, r)
		vc[c] = v
		live = append(live, c)
		v = make([]float64, n)
	}

	selected := []int{}
	for len(selected) < maxSel {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		df2 := n - len(selected) - 2 // residual dof after adding one more
		if df2 < 1 {
			break
		}
		crit := fCriticalApprox(df2) * fScale
		best, bestCol, bestDelta := -1, -1, 0.0
		kept := live[:0]
		for _, c := range live {
			if vcNorm2[c] <= 1e-12*colNorm2[c] {
				continue // (near-)collinear with the current model
			}
			delta := gr[c] * gr[c] / vcNorm2[c]
			if delta > bestDelta {
				best, bestCol, bestDelta = len(kept), c, delta
			}
			kept = append(kept, c)
		}
		live = kept
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
		live = append(live[:best], live[best+1:]...)
		// The winner, normalized, is the next basis direction; fold it out
		// of the residual and every remaining candidate (modified
		// Gram-Schmidt step).
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
		if err := foldAll(ctx, width, q, r, live, vc, vcNorm2, gr); err != nil {
			return nil, err
		}
	}

	model, err := LinearRegression(len(selected), func(k int, dst []float64) { col(selected[k], dst) }, y)
	if err != nil {
		return nil, err
	}
	return &StepwiseResult{Selected: selected, Model: model, Dropped: p - len(selected)}, nil
}

// foldAll runs foldOut over the live candidates. At a width above one they
// split into contiguous blocks of whole four-column groups, one per
// goroutine on par.Ordered. A block writes only its own columns and their
// vcNorm2 and gr entries, and no column's sums depend on the split, so
// the result is bit-identical at every width.
func foldAll(ctx context.Context, width int, q, r []float64, live []int, vc [][]float64, vcNorm2, gr []float64) error {
	groups := (len(live) + 3) / 4
	blocks := min(width, groups)
	if blocks <= 1 {
		foldOut(q, r, live, vc, vcNorm2, gr)
		return nil
	}
	return par.Ordered(ctx, blocks, blocks,
		func() (struct{}, error) { return struct{}{}, nil },
		func(_ context.Context, _ struct{}, b int) (struct{}, error) {
			lo, hi := 4*(b*groups/blocks), min(4*((b+1)*groups/blocks), len(live))
			foldOut(q, r, live[lo:hi], vc, vcNorm2, gr)
			return struct{}{}, nil
		},
		func(int, struct{}) error { return nil })
}

// foldOut folds the unit direction q out of each candidate column in cs
// and refreshes the column's squared norm and its dot product with the
// residual r. Four candidates share each pass over q and r; the tail runs
// the same sums one column at a time. Every sum runs in index order, as
// linalg.Dot does, so the result is bit-identical to updating one column
// at a time.
func foldOut(q, r []float64, cs []int, vc [][]float64, vcNorm2, gr []float64) {
	r = r[:len(q)]
	for ; len(cs) >= 4; cs = cs[4:] {
		v0, v1, v2, v3 := vc[cs[0]][:len(q)], vc[cs[1]][:len(q)], vc[cs[2]][:len(q)], vc[cs[3]][:len(q)]
		var d0, d1, d2, d3 float64
		for i, qi := range q {
			d0 += float64(qi * v0[i])
			d1 += float64(qi * v1[i])
			d2 += float64(qi * v2[i])
			d3 += float64(qi * v3[i])
		}
		var n0, n1, n2, n3, g0, g1, g2, g3 float64
		for i, qi := range q {
			ri := r[i]
			e := v0[i] - float64(d0*qi)
			v0[i] = e
			n0 += float64(e * e)
			g0 += float64(e * ri)
			e = v1[i] - float64(d1*qi)
			v1[i] = e
			n1 += float64(e * e)
			g1 += float64(e * ri)
			e = v2[i] - float64(d2*qi)
			v2[i] = e
			n2 += float64(e * e)
			g2 += float64(e * ri)
			e = v3[i] - float64(d3*qi)
			v3[i] = e
			n3 += float64(e * e)
			g3 += float64(e * ri)
		}
		vcNorm2[cs[0]], vcNorm2[cs[1]], vcNorm2[cs[2]], vcNorm2[cs[3]] = n0, n1, n2, n3
		gr[cs[0]], gr[cs[1]], gr[cs[2]], gr[cs[3]] = g0, g1, g2, g3
	}
	for _, c := range cs {
		v := vc[c][:len(q)]
		d := linalg.Dot(q, v)
		nrm, g := 0.0, 0.0
		for i, qi := range q {
			e := v[i] - float64(d*qi)
			v[i] = e
			nrm += float64(e * e)
			g += float64(e * r[i])
		}
		vcNorm2[c], gr[c] = nrm, g
	}
}
