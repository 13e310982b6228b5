// Package signal implements the signal-processing layer of EMSim: the
// per-cycle analog reconstruction kernels of §II-C (Equ. 2–6), their
// overlap-add renderer, correlation metrics, and the paper's per-cycle
// accuracy metric (§V-A).
package signal

import (
	"fmt"
	"math"
)

// KernelKind selects the pulse shape convolved with the per-cycle
// amplitudes x[n] to form the continuous signal.
type KernelKind int

// The three reconstruction options compared in Figure 1.
const (
	// KernelRect is the zero-order hold of Equ. 2: activity spread evenly
	// over the cycle.
	KernelRect KernelKind = iota
	// KernelExp is the decaying exponential of Equ. 3/4: switching
	// concentrated right after the clock edge.
	KernelExp
	// KernelSinExp is the damped sinusoid of Equ. 5/6 — the paper's best
	// fit, capturing both the post-edge decay and the observed ringing.
	KernelSinExp
)

func (k KernelKind) String() string {
	switch k {
	case KernelRect:
		return "rect"
	case KernelExp:
		return "exp"
	case KernelSinExp:
		return "sin-exp"
	}
	return "unknown"
}

// Kernel is a concrete reconstruction kernel: a pulse shape sampled at the
// oscilloscope rate.
type Kernel struct {
	Kind KernelKind
	// Theta is the decay rate θ in units of 1/cycle (Equ. 3): the pulse
	// falls to e^{−Theta} after one clock period.
	Theta float64
	// Period is the sinusoid period T0 in cycles (Equ. 5).
	Period float64
	// SupportCycles bounds the pulse length in cycles (the exponential
	// tail is truncated there).
	SupportCycles int
}

// DefaultKernel returns the damped-sinusoid kernel with the parameters
// used throughout the experiments: ~4 ringing periods per clock cycle,
// decaying to a few percent within a cycle.
func DefaultKernel() Kernel {
	return Kernel{Kind: KernelSinExp, Theta: 4, Period: 0.25, SupportCycles: 3}
}

// Taps samples the kernel at samplesPerCycle points per clock cycle and
// returns the finite impulse response.
func (k Kernel) Taps(samplesPerCycle int) ([]float64, error) {
	if samplesPerCycle < 1 {
		return nil, fmt.Errorf("signal: samplesPerCycle %d < 1", samplesPerCycle)
	}
	sup := k.SupportCycles
	if sup < 1 {
		sup = 1
	}
	switch k.Kind {
	case KernelRect:
		taps := make([]float64, samplesPerCycle)
		for i := range taps {
			taps[i] = 1
		}
		return taps, nil
	case KernelExp:
		if k.Theta <= 0 {
			return nil, fmt.Errorf("signal: exp kernel needs Theta > 0 (got %g)", k.Theta)
		}
		n := sup * samplesPerCycle
		taps := make([]float64, n)
		for i := range taps {
			t := float64(i) / float64(samplesPerCycle) // in cycles
			taps[i] = math.Exp(-k.Theta * t)
		}
		return taps, nil
	case KernelSinExp:
		if k.Theta <= 0 || k.Period <= 0 {
			return nil, fmt.Errorf("signal: sin-exp kernel needs Theta, Period > 0 (got %g, %g)", k.Theta, k.Period)
		}
		n := sup * samplesPerCycle
		taps := make([]float64, n)
		for i := range taps {
			t := float64(i) / float64(samplesPerCycle)
			taps[i] = math.Sin(2*math.Pi*t/k.Period) * math.Exp(-k.Theta*t)
		}
		return taps, nil
	}
	return nil, fmt.Errorf("signal: unknown kernel kind %d", k.Kind)
}

// Reconstruct renders the continuous-time signal y(t) from per-cycle
// amplitudes x[n] (Equ. 2/4/6): one kernel instance per clock cycle,
// scaled by that cycle's amplitude, superposed. The output has
// len(x)*samplesPerCycle samples (the tail beyond the last cycle is
// truncated). It is the one-shot form of a Reconstructor, rendered into
// a buffer sized up front so it is allocated once.
func Reconstruct(x []float64, samplesPerCycle int, k Kernel) ([]float64, error) {
	r, err := k.NewReconstructor(samplesPerCycle)
	if err != nil {
		return nil, err
	}
	r.Start(make([]float64, 0, len(x)*samplesPerCycle+len(r.taps)))
	r.AddChunk(x)
	return r.Finish(), nil
}

// MustReconstruct is Reconstruct for known-good kernels.
func MustReconstruct(x []float64, samplesPerCycle int, k Kernel) []float64 {
	y, err := Reconstruct(x, samplesPerCycle, k)
	if err != nil {
		panic(err)
	}
	return y
}
