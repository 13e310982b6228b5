package stats

import (
	"fmt"
	"math"

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

// Predict evaluates the fitted model on one feature vector.
func (r *RegressionResult) Predict(x []float64) float64 {
	s := r.Intercept
	for j, c := range r.Coef {
		s += c * x[j]
	}
	return s
}

// LinearRegression fits y ≈ δ + X·c by ordinary least squares, the model
// form of Equ. 8 and Equ. 9 in the paper. X is given as rows of feature
// vectors; all rows must share y's length.
func LinearRegression(x [][]float64, y []float64) (*RegressionResult, error) {
	n := len(x)
	if n == 0 || n != len(y) {
		return nil, fmt.Errorf("stats: regression needs matching nonempty X (%d) and y (%d)", n, len(y))
	}
	p := len(x[0])
	a := linalg.NewMatrix(n, p+1)
	for i, row := range x {
		if len(row) != p {
			return nil, fmt.Errorf("stats: ragged feature row %d", i)
		}
		a.Set(i, 0, 1) // intercept column
		for j, v := range row {
			a.Set(i, j+1, v)
		}
	}
	beta, err := linalg.LeastSquares(a, y)
	if err != nil {
		return nil, fmt.Errorf("stats: regression solve: %w", err)
	}
	res := &RegressionResult{Intercept: beta[0], Coef: beta[1:], N: n, P: p}

	ybar := Mean(y)
	var rss, tss float64
	for i, row := range x {
		e := y[i] - res.Predict(row)
		rss += e * e
		d := y[i] - ybar
		tss += d * d
	}
	res.RSS = rss
	if tss > 0 {
		res.R2 = 1 - rss/tss
	} else {
		res.R2 = 1 // constant target perfectly fit by intercept
	}
	return res, nil
}

// interceptOnlyRSS is the null model's residual sum of squares.
func interceptOnlyRSS(y []float64) float64 {
	m := Mean(y)
	s := 0.0
	for _, v := range y {
		d := v - m
		s += d * d
	}
	return s
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
// accuracy.
//
// The implementation keeps every candidate column residualized against
// the selected set (incremental modified Gram-Schmidt): when a column
// enters the model, each remaining candidate is orthogonalized against
// it once, so a full selection pass costs O(n·p·k) rather than the
// O(n·p·k²) of re-orthogonalizing every candidate from scratch at every
// step; the same pass refreshes each candidate's dot product with the
// residual, so the scan needs no pass of its own. The scores are exactly
// the OLS residual-sum-of-squares reductions, and ties break toward the
// lowest column index, so the selection is deterministic.
func StepwiseRegression(x [][]float64, y []float64, opts StepwiseOptions) (*StepwiseResult, error) {
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
		g0 += v * q0
	}
	for i := range r {
		r[i] -= g0 * q0
	}
	rssCur := linalg.Dot(r, r)

	colNorm2 := make([]float64, p) // original norms, the collinearity yardstick
	vc := make([][]float64, p)
	vcNorm2 := make([]float64, p)
	gr := make([]float64, p) // gr[c] = vc[c]·r, the scan's numerator
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
			g += e * q0
		}
		for i := range v {
			v[i] -= g * q0
		}
		vc[c] = v
		vcNorm2[c] = linalg.Dot(v, v)
		gr[c] = linalg.Dot(v, r)
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
			delta := gr[c] * gr[c] / vcNorm2[c]
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
		// Gram-Schmidt step), refreshing each candidate's norm and its dot
		// product with the new residual in the same pass. Both sums run in
		// index order, exactly as linalg.Dot would over the updated column.
		q := vc[bestCol]
		inv := 1 / math.Sqrt(vcNorm2[bestCol])
		for i := range q {
			q[i] *= inv
		}
		g := linalg.Dot(q, r)
		for i := range r {
			r[i] -= g * q[i]
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
			nrm, g := 0.0, 0.0
			for i := range v {
				v[i] -= gc * q[i]
				nrm += v[i] * v[i]
				g += v[i] * r[i]
			}
			vcNorm2[c], gr[c] = nrm, g
		}
	}

	var model *RegressionResult
	var err error
	if len(selected) == 0 {
		// Intercept-only model.
		model, err = LinearRegression(make([][]float64, n), y)
		if err != nil {
			// An all-empty X is a zero-predictor regression; fit manually.
			model = &RegressionResult{Intercept: Mean(y), Coef: nil, N: n, RSS: interceptOnlyRSS(y)}
			err = nil
		}
	} else {
		sub := make([][]float64, n)
		for i, row := range x {
			s := make([]float64, len(selected))
			for k, c := range selected {
				s[k] = row[c]
			}
			sub[i] = s
		}
		model, err = LinearRegression(sub, y)
		if err != nil {
			return nil, err
		}
	}
	return &StepwiseResult{Selected: selected, Model: model, Dropped: p - len(selected)}, nil
}
