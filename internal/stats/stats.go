// Package stats provides the statistical machinery of the paper's model
// building: ordinary least-squares regression with the F-test-driven
// stepwise variable selection of §III-B, Welch's t-test for the TVLA
// leakage metric (§VI-A), descriptive statistics, and the hierarchical
// agglomerative clustering used to derive Table I.
package stats

import (
	"fmt"
	"math"
)

// Mean returns the arithmetic mean of xs (0 for empty input).
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// Variance returns the unbiased sample variance of xs (0 for fewer than
// two samples).
func Variance(xs []float64) float64 {
	if len(xs) < 2 {
		return 0
	}
	m := Mean(xs)
	s := 0.0
	for _, x := range xs {
		d := x - m
		s += float64(d * d)
	}
	return s / float64(len(xs)-1)
}

// MinMax returns the extrema of xs; it panics on empty input.
func MinMax(xs []float64) (min, max float64) {
	if len(xs) == 0 {
		panic("stats: MinMax of empty slice")
	}
	min, max = xs[0], xs[0]
	for _, x := range xs[1:] {
		if x < min {
			min = x
		}
		if x > max {
			max = x
		}
	}
	return min, max
}

// Pearson returns the Pearson correlation coefficient of two equal-length
// series, or an error when a series is degenerate (zero variance).
func Pearson(a, b []float64) (float64, error) {
	if len(a) != len(b) {
		return 0, fmt.Errorf("stats: length mismatch %d vs %d", len(a), len(b))
	}
	if len(a) < 2 {
		return 0, fmt.Errorf("stats: need at least 2 samples")
	}
	ma, mb := Mean(a), Mean(b)
	var sab, saa, sbb float64
	for i := range a {
		da, db := a[i]-ma, b[i]-mb
		sab += float64(da * db)
		saa += float64(da * da)
		sbb += float64(db * db)
	}
	//emsim:ignore floatcmp exactly-zero variance marks a constant series; tiny nonzero variance is legitimate data
	if saa == 0 || sbb == 0 {
		return 0, fmt.Errorf("stats: zero-variance series")
	}
	return sab / math.Sqrt(saa*sbb), nil
}
