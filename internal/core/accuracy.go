package core

import (
	"fmt"

	"emsim/internal/device"
	"emsim/internal/signal"
	"emsim/internal/stats"
)

// Comparison is the result of pitting the model's simulated signal
// against a device measurement of the same program.
type Comparison struct {
	// Measured and Simulated are the two analog signals (equal length).
	Measured, Simulated []float64
	// Accuracy is the paper's metric: mean per-cycle normalized
	// cross-correlation (§V-A), in [−1, 1].
	Accuracy float64
	// PerCycle is the per-cycle correlation series (for localizing
	// divergence, as the Figure 11 debugging use-case does).
	PerCycle []float64
	// RMSE is the root-mean-square difference after mean-abs
	// normalization of both signals.
	RMSE float64
	// Cycles is the program length in clock cycles.
	Cycles int
}

// CompareOnDevice measures the program on the device (averaged over runs
// captures), simulates it with the model through a streaming Session,
// and scores the match. The model runs its own core; only the measured
// waveform comes from the device.
func (m *Model) CompareOnDevice(dev *device.Device, words []uint32, runs int) (*Comparison, error) {
	measured, err := dev.MeasureAveraged(words, runs)
	if err != nil {
		return nil, err
	}
	sess, err := NewSession(m, ModelConfig(dev))
	if err != nil {
		return nil, err
	}
	simulated, err := sess.SimulateProgram(words)
	if err != nil {
		return nil, err
	}
	if devCycles := len(measured) / dev.SamplesPerCycle(); sess.Cycles() != devCycles {
		return nil, fmt.Errorf("core: timing mismatch: model %d cycles, device %d", sess.Cycles(), devCycles)
	}
	return m.Compare(measured, simulated)
}

// Compare scores two equal-length analog signals with the paper's
// accuracy metric.
func (m *Model) Compare(measured, simulated []float64) (*Comparison, error) {
	if len(measured) != len(simulated) {
		return nil, fmt.Errorf("core: signal lengths differ: %d vs %d", len(measured), len(simulated))
	}
	spc := m.SamplesPerCycle
	per, err := signal.PerCycleCorrelation(measured, simulated, spc)
	if err != nil {
		return nil, err
	}
	if len(per) == 0 {
		return nil, fmt.Errorf("core: %d samples are fewer than one cycle (%d)", len(measured), spc)
	}
	rm := rmseOf(signal.NormalizeMeanAbs(measured), signal.NormalizeMeanAbs(simulated))
	return &Comparison{
		Measured:  measured,
		Simulated: simulated,
		Accuracy:  stats.Mean(per), // signal.CycleAccuracy, in the same summation order
		PerCycle:  per,
		RMSE:      rm,
		Cycles:    len(per),
	}, nil
}
