package stats

import (
	"context"
	"fmt"
	"math"
	"math/bits"

	"emsim/internal/linalg"
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
}

// StepwiseRegression performs forward stepwise selection with an
// F-to-enter test (§III-B): starting from the intercept-only model it
// repeatedly adds the candidate predictor with the largest F statistic, as
// long as that statistic exceeds the critical value. This is how the paper
// prunes the transition-bit vector T by more than 65% without losing
// accuracy. The candidates are 0/1 columns of len(y) rows, packed 64 to a
// word: bit i%64 of word i/64 of cols[c] is candidate c at row i. Every
// column has (len(y)+63)/64 words and no bit set at or past len(y); any
// other column is an error. The final fit over the selected columns is
// LinearRegression's. A cancelled ctx stops the selection at its next
// step.
//
// The selection never forms a column of floats: it works in the Gram
// domain of the candidates centred on their means. For 0/1 columns a and
// b of popcounts pa and pb, n times their centred cross-product is the
// exact integer n·popcount(a∧b) − pa·pb, so each candidate keeps only its
// residual squared norm, its cross-product with the residual of y and
// one row of L, the candidates' coordinates along the orthonormal
// directions the selected columns added (the rows of a Cholesky factor).
// When column b enters, the candidates' new coordinates come from their
// Gram entries with b and the rows of L, so a step costs
// O(live·(n/64 + k)) for k selected columns. The scores are the OLS
// residual-sum-of-squares reductions, and ties break toward the lowest
// column index, so the selection is deterministic.
func StepwiseRegression(ctx context.Context, cols [][]uint64, y []float64, opts StepwiseOptions) (*StepwiseResult, error) {
	n, p := len(y), len(cols)
	if n == 0 {
		return nil, fmt.Errorf("stats: stepwise needs a nonempty y")
	}
	words := (n + 63) / 64
	var pastEnd uint64 // the last word's bits at or past row n
	if n%64 != 0 {
		pastEnd = ^uint64(0) << (n % 64)
	}
	for c, col := range cols {
		if len(col) != words {
			return nil, fmt.Errorf("stats: stepwise column %d has %d words for %d rows, want %d", c, len(col), n, words)
		}
		if col[words-1]&pastEnd != 0 {
			return nil, fmt.Errorf("stats: stepwise column %d sets a bit at or past row %d", c, n)
		}
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

	// The intercept is the first basis direction; the residual r is y
	// minus its projection onto it, and rssCur its sum of squares, which
	// each entering column lowers by its score.
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
	rbar := Mean(r)

	// Each candidate c keeps its popcount (its squared norm, the
	// collinearity yardstick), the squared norm of its centred column
	// residualized against the selected set, and that residual's
	// cross-product with r, the scan's numerator. The centred column's
	// cross-product with r is the sum of r over c's rows less popcount
	// times the mean of r: r sums to zero only up to rounding, and when y
	// is constant r is all rounding, which the sum alone would take for
	// signal. live lists, in
	// ascending order, the candidates that may still enter. One that
	// enters, or whose residual norm falls to the collinearity tolerance,
	// leaves for good: its entries are never updated again, so the test
	// that dropped it would drop it at every later step.
	nf := float64(n)
	count := make([]float64, p)
	norm2 := make([]float64, p)
	gr := make([]float64, p)
	live := make([]int, 0, p)
	for c, col := range cols {
		pc, g := 0, 0.0
		for w, x := range col {
			pc += bits.OnesCount64(x)
			for ; x != 0; x &= x - 1 {
				g += r[64*w+bits.TrailingZeros64(x)]
			}
		}
		count[c] = float64(pc)
		norm2[c] = float64(count[c]*(nf-count[c])) / nf
		// norm2 is <= 0 only for a column of all zeros or all ones, and
		// the tolerance test covers both.
		if norm2[c] <= 1e-12*count[c] {
			continue // collinear with the intercept
		}
		gr[c] = g - float64(count[c]*rbar)
		live = append(live, c)
	}

	// Row c of the flat p × maxSel buffer l holds candidate c's centred
	// column's coordinates along the directions of the selected columns,
	// in selection order.
	stride := max(maxSel, 0)
	l := make([]float64, p*stride)
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
			if norm2[c] <= 1e-12*count[c] {
				continue // (near-)collinear with the current model
			}
			delta := gr[c] * gr[c] / norm2[c]
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
		k := len(selected)
		selected = append(selected, bestCol)
		live = append(live[:best], live[best+1:]...)
		rssCur -= bestDelta
		if rssCur < 0 {
			rssCur = 0
		}
		// The winner's residual, scaled to unit norm, is the next basis
		// direction q = v_b/s. Each live candidate's coordinate along it
		// is its Gram entry with b less the part along the earlier
		// directions, over s; folding q out lowers the candidate's norm
		// by the coordinate squared and its cross-product with r by the
		// coordinate times t = q·r.
		b := cols[bestCol]
		lb := l[bestCol*stride : bestCol*stride+k]
		s := math.Sqrt(norm2[bestCol])
		t := gr[bestCol] / s
		for _, c := range live {
			col := cols[c][:len(b)]
			both := 0
			for w, x := range col {
				both += bits.OnesCount64(x & b[w])
			}
			gram := (float64(nf*float64(both)) - float64(count[c]*count[bestCol])) / nf
			lc := l[c*stride : c*stride+k+1]
			d := 0.0
			for j, v := range lb {
				d += float64(lc[j] * v)
			}
			lck := (gram - d) / s
			lc[k] = lck
			norm2[c] -= float64(lck * lck)
			gr[c] -= float64(lck * t)
		}
	}

	model, err := LinearRegression(len(selected), func(k int, dst []float64) {
		col := cols[selected[k]]
		for i := range dst {
			dst[i] = float64(col[i/64] >> (i % 64) & 1)
		}
	}, y)
	if err != nil {
		return nil, err
	}
	return &StepwiseResult{Selected: selected, Model: model, Dropped: p - len(selected)}, nil
}
