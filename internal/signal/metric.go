package signal

import "fmt"

// CycleAccuracy implements the paper's accuracy metric (§V-A): both
// signals are normalized to a similar average level, divided into clock
// cycles, each cycle compared with normalized cross-correlation, and the
// per-cycle correlations averaged. The result is in [−1, 1]; the paper
// reports it as a percentage (94.1% on its benchmark).
func CycleAccuracy(real, sim []float64, samplesPerCycle int) (float64, error) {
	per, err := PerCycleCorrelation(real, sim, samplesPerCycle)
	if err != nil {
		return 0, err
	}
	if len(per) == 0 {
		return 0, fmt.Errorf("signal: fewer samples (%d) than one cycle (%d)", len(real), samplesPerCycle)
	}
	sum := 0.0
	for _, ncc := range per {
		sum += ncc
	}
	return sum / float64(len(per)), nil
}

// PerCycleCorrelation returns the cycle-by-cycle normalized
// cross-correlations (the series averaged by CycleAccuracy) for
// diagnosing where two signals diverge — the hardware-debugging use-case
// of §VI-B localizes defects by finding the cycles where this dips.
func PerCycleCorrelation(real, sim []float64, samplesPerCycle int) ([]float64, error) {
	if samplesPerCycle < 1 {
		return nil, fmt.Errorf("signal: samplesPerCycle %d < 1", samplesPerCycle)
	}
	if len(real) != len(sim) {
		return nil, fmt.Errorf("signal: length mismatch %d vs %d", len(real), len(sim))
	}
	cycles := len(real) / samplesPerCycle
	a := NormalizeMeanAbs(real)
	b := NormalizeMeanAbs(sim)
	out := make([]float64, cycles)
	for c := 0; c < cycles; c++ {
		lo, hi := c*samplesPerCycle, (c+1)*samplesPerCycle
		ncc, err := NCC(a[lo:hi], b[lo:hi])
		if err != nil {
			return nil, err
		}
		out[c] = ncc
	}
	return out, nil
}
