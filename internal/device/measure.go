package device

import (
	"context"
	"fmt"
	"hash/fnv"
	"math/rand"

	"emsim/internal/cpu"
	"emsim/internal/par"
)

// This file is the parallel-measurement surface of the synthetic bench.
// A Device's MeasureAveraged draws noise from one shared RNG whose
// state advances with every capture — faithful to a single oscilloscope,
// but useless for a measurement fan-out, where the noise a program sees
// would depend on which worker got there first. A Measurer is an
// independent replica of the same physical setup (shared hidden physics,
// private core) whose noise is a *per-program* deterministic stream:
// measuring the same program on any replica, in any order, at any
// concurrency, yields byte-identical captures. That property is what
// lets core.Trainer promise a fitted model independent of worker count.

// Fingerprint returns a stable content hash of the device's observable
// configuration (board seed, clock trim, probe, noise, rate, core
// geometry). Two devices with equal fingerprints produce identical
// Measurer captures for identical programs, which makes the fingerprint
// the device component of core.MeasurementCache keys.
func (d *Device) Fingerprint() uint64 {
	h := fnv.New64a()
	fmt.Fprintf(h, "%#v", d.opts)
	return h.Sum64()
}

// programNoiseSeed derives the seed of one program's noise stream from
// the device noise seed and the program content (the program hash,
// finalized with par.Mix so adjacent seeds decorrelate).
func programNoiseSeed(noiseSeed int64, words []uint32) int64 {
	return int64(par.Mix(par.HashWords(words) ^ uint64(noiseSeed)*0x9E3779B97F4A7C15))
}

// Measurer is one independent measurement replica of a Device: it shares
// the device's hidden physics and probe placement but owns its core and
// derives a fresh per-program noise stream for every measurement.
// Measurers are not safe for concurrent use individually; any number of
// them may measure concurrently against the same Device.
type Measurer struct {
	d    *Device
	core *cpu.CPU
}

// NewMeasurer builds an independent measurement replica of the device.
func (d *Device) NewMeasurer() (*Measurer, error) {
	core, err := cpu.New(d.opts.CPU)
	if err != nil {
		return nil, err
	}
	return &Measurer{d: d, core: core}, nil
}

// MeasureAveraged is the replica form of Device.MeasureAveraged: the
// program is simulated and emitted once, then `runs` noisy captures of
// that emission are averaged sample by sample. The capture holds
// exactly SamplesPerCycle samples per executed cycle. Unlike the Device
// method, the noise comes from a stream seeded by (device noise seed,
// program words), so the result is a pure function of (device
// configuration, program, runs) — independent of measurement order and
// of every other program measured. The context cancels the simulation
// and is checked before every noise pass.
func (m *Measurer) MeasureAveraged(ctx context.Context, words []uint32, runs int) ([]float64, error) {
	rng := rand.New(rand.NewSource(programNoiseSeed(m.d.opts.NoiseSeed, words)))
	return m.d.measure(ctx, m.core, words, runs, rng)
}

// measure is the procedure behind both MeasureAveraged methods.
// cpu.RunProgramToContext fully resets the core and memory, so every
// averaging run of a program yields the same cycles and the same clean
// emission y; only the noise differs. The program is therefore run and
// emitted once, and the draws keep the order of a per-run capture loop
// — run by run, sample by sample — so the mean is bit-identical to
// re-simulating every run.
func (d *Device) measure(ctx context.Context, core *cpu.CPU, words []uint32, runs int, rng *rand.Rand) ([]float64, error) {
	if runs < 1 {
		return nil, fmt.Errorf("device: need >= 1 run (got %d)", runs)
	}
	y, err := d.emit(ctx, core, words)
	if err != nil {
		return nil, err
	}
	acc := make([]float64, len(y))
	for r := 0; r < runs; r++ {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		for i, v := range y {
			acc[i] += v + d.opts.NoiseStd*rng.NormFloat64()
		}
	}
	inv := 1 / float64(runs)
	for i := range acc {
		acc[i] *= inv
	}
	return acc, nil
}
