package core

import (
	"fmt"
	"math"

	"emsim/internal/cpu"
	"emsim/internal/device"
	"emsim/internal/stats"
)

// probeFit is the §V-D calibration regression: measured amplitudes at a
// new probe position against the model's (unscaled) per-stage sources.
func (m *Model) probeFit(dev *device.Device, words []uint32, runs int) (*stats.RegressionResult, error) {
	sig, err := dev.MeasureAveraged(words, runs)
	if err != nil {
		return nil, err
	}
	c, err := cpu.New(ModelConfig(dev))
	if err != nil {
		return nil, err
	}
	amps, err := ExtractAmplitudes(sig, m.SamplesPerCycle, m.Kernel)
	if err != nil {
		return nil, err
	}
	base := m
	if base.Beta != nil {
		base = m.WithBeta([cpu.NumStages]float64{1, 1, 1, 1, 1})
	}
	fit, _, _, err := base.stageFit(c, []measurement{{words: words, amps: amps}})
	if err != nil {
		return nil, fmt.Errorf("core: probe calibration: %w", err)
	}
	return fit, nil
}

// AdaptToProbe returns a model copy calibrated for a new probe position
// (§V-D): the Equ. 9 regression is re-solved against a short calibration
// measurement, and each refitted per-stage coefficient divided by the
// trained one is that stage's loss coefficient β. The copy takes the β
// scaling plus the refitted background level (the ambient offset also
// attenuates with distance). One short calibration program suffices; A,
// the activity weights and the kernel transfer unchanged.
func (m *Model) AdaptToProbe(dev *device.Device, words []uint32, runs int) (*Model, [cpu.NumStages]float64, error) {
	var beta [cpu.NumStages]float64
	fit, err := m.probeFit(dev, words, runs)
	if err != nil {
		return nil, beta, err
	}
	for s := 0; s < cpu.NumStages; s++ {
		if math.Abs(m.MISO[s]) < 1e-9 {
			beta[s] = 1
			continue
		}
		beta[s] = fit.Coef[s] / m.MISO[s]
	}
	adapted := m.WithBeta(beta)
	adapted.MISOIntercept = fit.Intercept
	return adapted, beta, nil
}
