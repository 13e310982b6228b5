package device

import (
	"context"
	"fmt"

	"emsim/internal/cpu"
	"emsim/internal/signal"
)

// ProbePosition places the magnetic probe relative to the die. The five
// pipeline stages sit at x = 0..4 (arbitrary die units); the base
// measurement position of the paper (probe centered above the chip) is
// x = 2 at height 1.
type ProbePosition struct {
	X, Height float64
}

// BaseProbe returns the reference probe placement all loss coefficients
// are normalized to (β = 1 there, §V-D).
func BaseProbe() ProbePosition { return ProbePosition{X: 2, Height: 1} }

// lossTo computes the raw path loss from the probe to stage s's location
// (inverse-square flat-fading coefficient).
func (p ProbePosition) lossTo(s cpu.Stage) float64 {
	dx := p.X - float64(s)
	d2 := float64(p.Height*p.Height) + float64(dx*dx)
	return 1 / d2
}

// Options configures a Device.
type Options struct {
	// TechSeed selects the board/CMOS instance: a different seed is a
	// different physical board (§V-C). Same seed + different ClockPPM is
	// a different manufacturing instance of the same board (§V-B).
	TechSeed int64
	// ClockPPM is the relative clock-frequency deviation (parts per
	// million) of this physical instance.
	ClockPPM float64
	// Probe is the magnetic probe placement; zero value means BaseProbe.
	Probe ProbePosition
	// NoiseStd is the additive white measurement noise (per analog
	// sample, in device amplitude units).
	NoiseStd float64
	// SamplesPerCycle is the oscilloscope rate in samples per clock
	// cycle.
	SamplesPerCycle int
	// CPU configures the device's core. The Figure 11 experiment sets
	// BuggyMul here to fabricate a defective chip.
	CPU cpu.Config
	// NoiseSeed decorrelates the measurement noise between devices.
	NoiseSeed int64
}

// DefaultOptions returns the baseline device: board #1, nominal clock,
// probe at the reference position, 16 samples per cycle, and a noise
// level that leaves headroom for the paper's ≈94 % accuracy.
func DefaultOptions() Options {
	return Options{
		TechSeed:        1,
		Probe:           BaseProbe(),
		NoiseStd:        0.06,
		SamplesPerCycle: 16,
		CPU:             cpu.DefaultConfig(),
		NoiseSeed:       1,
	}
}

// Device is one physical measurement setup: a board (with hidden
// physics), a probe position, and an oscilloscope. A Device is
// immutable once built, so any number of goroutines may measure on it.
type Device struct {
	opts Options
	phys *physics
	beta [cpu.NumStages]float64
}

// New builds a device from opts (zero-value fields are filled with
// defaults).
func New(opts Options) (*Device, error) {
	if opts.SamplesPerCycle == 0 {
		opts.SamplesPerCycle = DefaultOptions().SamplesPerCycle
	}
	if opts.SamplesPerCycle < 4 {
		return nil, fmt.Errorf("device: need >= 4 samples per cycle (got %d)", opts.SamplesPerCycle)
	}
	if (opts.Probe == ProbePosition{}) {
		opts.Probe = BaseProbe()
	}
	if opts.CPU.MaxCycles == 0 {
		opts.CPU = cpu.DefaultConfig()
	}
	if opts.NoiseStd < 0 {
		return nil, fmt.Errorf("device: negative noise %g", opts.NoiseStd)
	}
	if _, err := cpu.New(opts.CPU); err != nil {
		return nil, err
	}
	d := &Device{opts: opts, phys: newPhysics(opts.TechSeed)}
	base := BaseProbe()
	for s := cpu.Stage(0); s < cpu.NumStages; s++ {
		d.beta[s] = opts.Probe.lossTo(s) / base.lossTo(s)
	}
	return d, nil
}

// MustNew is New for known-good options; it panics on error.
func MustNew(opts Options) *Device {
	d, err := New(opts)
	if err != nil {
		panic(err)
	}
	return d
}

// SamplesPerCycle returns the oscilloscope rate in samples per clock
// cycle.
func (d *Device) SamplesPerCycle() int { return d.opts.SamplesPerCycle }

// Options returns the device configuration (hidden physics excluded).
func (d *Device) Options() Options { return d.opts }

// emit runs the program once on a fresh core (New has validated its
// configuration) and renders the ideal (noise-free) analog emission of
// that run from the cycles as the core streams them. Reconstruction
// returns exactly SamplesPerCycle samples per cycle, and
// stretchPerCycle keeps that length.
func (d *Device) emit(ctx context.Context, words []uint32) ([]float64, error) {
	var x []float64
	err := cpu.MustNew(d.opts.CPU).RunProgramToContext(ctx, words, cpu.CycleSinkFunc(func(c *cpu.Cycle) error {
		x = append(x, d.phys.cycleAmplitude(c, &d.beta))
		return nil
	}))
	if err != nil {
		return nil, fmt.Errorf("device: %w", err)
	}
	y := signal.MustReconstruct(x, d.opts.SamplesPerCycle, d.phys.kernel)
	if d.opts.ClockPPM != 0 {
		y = stretchPerCycle(y, d.opts.SamplesPerCycle, 1+float64(d.opts.ClockPPM*1e-6))
	}
	return y, nil
}

// stretchPerCycle emulates a clock-trimmed board under cycle-locked
// acquisition: cycle boundaries stay on their nominal samples and only
// the waveform inside each cycle is time-scaled by the trim. The paper's
// modulo operation (§II-B) locks captures this way because it folds them
// at the device's *actual* clock period (T_s = noc × T_clk). This is why
// §V-B finds the shifted boards "slightly shifted" per cycle but
// statistically indistinguishable in accuracy — the drift never
// accumulates across cycles.
func stretchPerCycle(y []float64, spc int, factor float64) []float64 {
	if factor == 1 || len(y) < 2 || spc < 2 {
		return y
	}
	out := make([]float64, len(y))
	cycles := len(y) / spc
	interp := func(pos float64) float64 {
		lo := int(pos)
		if lo < 0 {
			return y[0]
		}
		if lo >= len(y)-1 {
			return y[len(y)-1]
		}
		frac := pos - float64(lo)
		return float64(y[lo]*(1-frac)) + float64(y[lo+1]*frac)
	}
	for c := 0; c < cycles; c++ {
		base := c * spc
		for i := 0; i < spc; i++ {
			out[base+i] = interp(float64(base) + float64(i)/factor)
		}
	}
	copy(out[cycles*spc:], y[cycles*spc:])
	return out
}
