package stats

import (
	"context"
	"errors"
	"math"
	"testing"
)

// TestStepwiseEdgeCases pins StepwiseRegression's behavior on the
// degenerate inputs the training pipeline can produce: collinear
// transition-bit columns (many bits toggle together), all-zero columns
// (bits that never switch in the training set), more candidates than
// samples, and F statistics that sit exactly on the entry threshold.
// Each case uses a hand-computable design built from the 0/1 columns
//
//	c0 = (1, 1, 0, 0)   c1 = (1, 0, 1, 0)   c2 = (1, 0, 0, 1)
//
// whose centred forms, half the sign vectors
//
//	s0 = (1, 1, -1, -1)   s1 = (1, -1, 1, -1)   s2 = (1, -1, -1, 1),
//
// are mutually orthogonal, so the RSS reductions, F statistics, selected
// sets and Dropped counts are exact small integers, not properties of a
// random draw.
func TestStepwiseEdgeCases(t *testing.T) {
	c0 := []float64{1, 1, 0, 0}
	c1 := []float64{1, 0, 1, 0}
	c2 := []float64{1, 0, 0, 1}
	zero := []float64{0, 0, 0, 0}

	// target mixes the sign vectors with the given weights.
	target := func(w0, w1, w2 float64) []float64 {
		y := make([]float64, 4)
		for i := range y {
			y[i] = w0*(2*c0[i]-1) + w1*(2*c1[i]-1) + w2*(2*c2[i]-1)
		}
		return y
	}

	cases := []struct {
		name         string
		x            [][]float64 // candidate columns
		y            []float64
		opts         StepwiseOptions
		wantSelected []int
		wantDropped  int
	}{
		{
			// Column 1 duplicates column 0. After column 0 enters (F≈200
			// at df2=2), the duplicate orthogonalizes to the zero vector
			// and must be skipped by the collinearity test; column 2 then
			// completes a perfect fit.
			name:         "collinear duplicate skipped",
			x:            [][]float64{c0, c0, c1},
			y:            target(100, 10, 0),
			wantSelected: []int{0, 2},
			wantDropped:  1,
		},
		{
			// An all-zero predictor has popcount 0 and centred norm 0; the
			// tolerance test norm2 <= 1e-12·popcount reduces to 0 <= 0
			// and skips it, so only the real column can enter.
			name:         "all-zero predictor never selected",
			x:            [][]float64{zero, c0},
			y:            target(5, 0, 0),
			wantSelected: []int{1},
			wantDropped:  1,
		},
		{
			// Every candidate is zero: selection finds nothing and the
			// result degrades to the intercept-only model.
			name:         "all candidates zero: intercept-only",
			x:            [][]float64{zero, zero},
			y:            []float64{1, 2, 3, 4},
			wantSelected: []int{},
			wantDropped:  2,
		},
		{
			// p = 6 candidates for n = 4 samples: the selector may use at
			// most n-2 = 2 columns (one residual degree of freedom), and
			// the duplicate/zero columns must not confuse it. Both real
			// signals clear their critical values (F≈22 at df2=2, then
			// F=900 at df2=1).
			name:         "p greater than n clamps to n-2",
			x:            [][]float64{c0, c1, c2, c0, zero, c1},
			y:            target(100, 30, 1),
			wantSelected: []int{0, 1},
			wantDropped:  4,
		},
		{
			// Threshold boundary, permissive side. The second candidate's
			// F statistic is exactly 1 (Δ=4, denom=4 — all integers, so no
			// rounding). FEnter = 0.9/161.4 puts the df2=1 critical value
			// at 0.9: F ≥ crit, the column enters.
			name:         "F at threshold enters when crit is below",
			x:            [][]float64{c0, c1},
			y:            target(100, 1, 1), // the c2 part is irreducible noise
			opts:         StepwiseOptions{FEnter: 0.9 / 161.4},
			wantSelected: []int{0, 1},
			wantDropped:  0,
		},
		{
			// Same data, strict side: crit = 1.1 > F = 1 rejects the
			// second column. The flip between this case and the previous
			// one pins the comparison direction at the boundary.
			name:         "F at threshold stops when crit is above",
			x:            [][]float64{c0, c1},
			y:            target(100, 1, 1),
			opts:         StepwiseOptions{FEnter: 1.1 / 161.4},
			wantSelected: []int{0},
			wantDropped:  1,
		},
		{
			// Default threshold (161.4 at df2=1) likewise rejects F=1.
			name:         "F at threshold stops at default crit",
			x:            [][]float64{c0, c1},
			y:            target(100, 1, 1),
			wantSelected: []int{0},
			wantDropped:  1,
		},
	}

	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			res, err := StepwiseRegression(context.Background(), bitColumns(tc.x), tc.y, tc.opts)
			if err != nil {
				t.Fatal(err)
			}
			if !equalInts(res.Selected, tc.wantSelected) {
				t.Errorf("Selected = %v, want %v", res.Selected, tc.wantSelected)
			}
			if res.Dropped != tc.wantDropped {
				t.Errorf("Dropped = %d, want %d", res.Dropped, tc.wantDropped)
			}
			if res.Dropped != len(tc.x)-len(res.Selected) {
				t.Errorf("Dropped = %d inconsistent with %d candidates and %d selected",
					res.Dropped, len(tc.x), len(res.Selected))
			}
			if res.Model == nil {
				t.Fatal("nil Model in result")
			}
			if len(res.Model.Coef) != len(res.Selected) {
				t.Errorf("model has %d coefficients for %d selected columns",
					len(res.Model.Coef), len(res.Selected))
			}
		})
	}

	t.Run("intercept-only model is the mean", func(t *testing.T) {
		y := []float64{1, 2, 3, 4}
		res, err := StepwiseRegression(context.Background(), bitColumns([][]float64{zero, zero}), y, StepwiseOptions{})
		if err != nil {
			t.Fatal(err)
		}
		if got := res.Model.Intercept; math.Abs(got-2.5) > 1e-12 {
			t.Errorf("intercept = %g, want 2.5", got)
		}
		if got := predictSelected(res, []float64{1, 1}); math.Abs(got-2.5) > 1e-12 {
			t.Errorf("prediction = %g, want the mean 2.5", got)
		}
		if got, want := res.Model.RSS, interceptOnlyRSS(y); math.Abs(got-want) > 1e-12 {
			t.Errorf("RSS = %g, want %g", got, want)
		}
	})
}

// TestStepwiseConstantTargetSelectsNothing: a constant y leaves a
// residual of pure rounding after the intercept step (11.5 at 49 rows
// does), which carries no signal for any column to fit.
func TestStepwiseConstantTargetSelectsNothing(t *testing.T) {
	const n = 49
	y := make([]float64, n)
	most, few := make([]float64, n), make([]float64, n)
	for i := range y {
		y[i] = 11.5
		most[i] = float64(min(i%5, 1)) // 39 of 49 rows
		few[i] = float64(1 - min(i%5, 1))
	}
	res, err := StepwiseRegression(context.Background(), bitColumns([][]float64{most, few}), y, StepwiseOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Selected) != 0 || res.Dropped != 2 {
		t.Errorf("selected %v from a constant target", res.Selected)
	}
}

// TestStepwiseColumnsStopsWhenCancelled checks that a cancelled context
// ends the selection with the context's error instead of a model.
func TestStepwiseColumnsStopsWhenCancelled(t *testing.T) {
	x, y, _ := stepwiseProblem(1)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	res, err := StepwiseRegression(ctx, bitColumns(x), y, StepwiseOptions{})
	if !errors.Is(err, context.Canceled) || res != nil {
		t.Fatalf("StepwiseRegression on a cancelled context = %v, %v; want context.Canceled", res, err)
	}
}

// TestStepwiseRejectsMalformedInput checks that an empty y, a column of
// the wrong word count and a bit at or past len(y) are errors, not
// panics or silent fits.
func TestStepwiseRejectsMalformedInput(t *testing.T) {
	y := make([]float64, 70) // two words per column, six bits of the second in use
	ok := make([]uint64, 2)
	cases := []struct {
		name string
		cols [][]uint64
		y    []float64
	}{
		{"empty y", nil, nil},
		{"empty y with a column", [][]uint64{{}}, nil},
		{"short column", [][]uint64{ok, {1}}, y},
		{"long column", [][]uint64{ok, {1, 0, 0}}, y},
		{"bit at len(y)", [][]uint64{ok, {0, 1 << 6}}, y},
		{"top bit of the last word", [][]uint64{ok, {0, 1 << 63}}, y},
		{"extra word at a whole-word length", [][]uint64{{0, 0}}, y[:64]},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if res, err := StepwiseRegression(context.Background(), tc.cols, tc.y, StepwiseOptions{}); err == nil {
				t.Errorf("accepted, selected %v", res.Selected)
			}
		})
	}
	// The last row itself is in range.
	if _, err := StepwiseRegression(context.Background(), [][]uint64{{0, 1 << 5}}, y, StepwiseOptions{}); err != nil {
		t.Errorf("a bit at row len(y)-1: %v", err)
	}
}

// interceptOnlyRSS is the null model's residual sum of squares.
func interceptOnlyRSS(y []float64) float64 {
	m := Mean(y)
	s := 0.0
	for _, v := range y {
		d := v - m
		s += float64(d * d)
	}
	return s
}

func equalInts(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
