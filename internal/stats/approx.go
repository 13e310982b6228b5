package stats

import "math"

// DefaultRelTol is the relative tolerance used by the package's own
// degenerate-case guards: comfortably above the rounding error a few
// thousand float64 accumulations produce, far below any difference the
// leakage statistics would ever call signal.
const DefaultRelTol = 1e-9

// ApproxEqual reports whether a and b agree to within rel relative
// tolerance, scaled by the larger magnitude. It is the comparison the
// floatcmp analyzer asks for in place of ==: exact float equality in
// this module's arithmetic (Equ. 5/8/9 accumulations) is almost always
// a rounding-noise bug, WelchT's degenerate-variance case being the
// canonical example.
func ApproxEqual(a, b, rel float64) bool {
	//emsim:ignore floatcmp the tolerance helper itself needs the exact short-circuit for ties and infinities
	if a == b {
		return true
	}
	if math.IsInf(a, 0) || math.IsInf(b, 0) {
		return false // equal infinities took the short-circuit above
	}
	return math.Abs(a-b) <= rel*math.Max(math.Abs(a), math.Abs(b))
}
