package signal

import (
	"fmt"
	"math"
)

// RMSE returns the root-mean-square error between two equal-length
// signals.
func RMSE(a, b []float64) (float64, error) {
	if len(a) != len(b) {
		return 0, fmt.Errorf("signal: RMSE length mismatch %d vs %d", len(a), len(b))
	}
	if len(a) == 0 {
		return 0, fmt.Errorf("signal: RMSE of empty signals")
	}
	s := 0.0
	for i := range a {
		d := a[i] - b[i]
		s += float64(d * d)
	}
	return math.Sqrt(s / float64(len(a))), nil
}

// Energy returns the sum of squares of x.
func Energy(x []float64) float64 {
	s := 0.0
	for _, v := range x {
		s += float64(v * v)
	}
	return s
}

// NCC returns the zero-lag normalized cross-correlation of two
// equal-length signals: Σab / √(Σa²·Σb²), in [−1, 1]. Two all-zero
// signals correlate perfectly (1); one all-zero signal yields 0.
func NCC(a, b []float64) (float64, error) {
	if len(a) != len(b) {
		return 0, fmt.Errorf("signal: NCC length mismatch %d vs %d", len(a), len(b))
	}
	if len(a) == 0 {
		return 0, fmt.Errorf("signal: NCC of empty signals")
	}
	var sab, saa, sbb float64
	for i := range a {
		sab += float64(a[i] * b[i])
		saa += float64(a[i] * a[i])
		sbb += float64(b[i] * b[i])
	}
	//emsim:ignore floatcmp exactly-zero energy distinguishes all-zero signals per the doc contract
	if saa == 0 && sbb == 0 {
		return 1, nil
	}
	//emsim:ignore floatcmp exactly-zero energy distinguishes all-zero signals per the doc contract
	if saa == 0 || sbb == 0 {
		return 0, nil
	}
	return sab / math.Sqrt(saa*sbb), nil
}

// NormalizeMeanAbs rescales x so its mean absolute value is 1, the
// "normalize both signals to have similar average" step of the paper's
// accuracy metric. All-zero input is returned unchanged.
func NormalizeMeanAbs(x []float64) []float64 {
	s := 0.0
	for _, v := range x {
		s += math.Abs(v)
	}
	out := make([]float64, len(x))
	//emsim:ignore floatcmp a sum of absolute values is exactly zero only for all-zero input
	if s == 0 {
		copy(out, x)
		return out
	}
	scale := float64(len(x)) / s
	for i, v := range x {
		out[i] = v * scale
	}
	return out
}
