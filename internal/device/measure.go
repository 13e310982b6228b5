package device

import (
	"context"
	"fmt"
	"hash/fnv"
	"math/rand"

	"emsim/internal/par"
)

// This file is the device's one measurement procedure. Every capture
// is keyed: its noise stream is seeded by (device noise seed, program
// words, capture index), so a capture is a pure function of (device
// configuration, program, runs, index) — independent of what was
// measured before it, of which goroutine measures it, and of how many
// measure at once. That property lets core.Trainer promise a fitted
// model independent of worker count, and lets every experiment print
// the same numbers alone as in a full run.

// Fingerprint returns a stable content hash of the device's observable
// configuration (board seed, clock trim, probe, noise, rate, core
// geometry). Two devices with equal fingerprints produce identical
// captures for identical programs, which makes the fingerprint the
// device component of core.MeasurementCache keys.
func (d *Device) Fingerprint() uint64 {
	h := fnv.New64a()
	fmt.Fprintf(h, "%#v", d.opts)
	return h.Sum64()
}

// programNoiseSeed derives the seed of one capture's noise stream from
// the device noise seed, the program content (the program hash) and
// the capture index, finalized with par.Mix so adjacent seeds
// decorrelate. Index 0 adds nothing, so it is the per-program seed.
func programNoiseSeed(noiseSeed int64, words []uint32, index uint64) int64 {
	return int64(par.Mix(par.HashWords(words) ^ uint64(noiseSeed)*0x9E3779B97F4A7C15 ^ index*0x8CB92BA72F3D8DD7))
}

// MeasureAveraged emulates the paper's measurement procedure (§II-B): the
// sequence is executed `runs` times (1000 in the paper) and the captures
// are averaged sample by sample, yielding a low-noise reference
// signal. The capture holds exactly SamplesPerCycle samples per
// executed cycle, so len(y)/SamplesPerCycle() is the program's cycle
// count. One run is one noisy oscilloscope capture. The noise is keyed
// by the program, so measuring one program twice returns the same
// samples.
func (d *Device) MeasureAveraged(words []uint32, runs int) ([]float64, error) {
	return d.capture(context.Background(), words, runs, 0)
}

// MeasureAveragedContext is MeasureAveraged with cancellation: the
// context cancels the simulation and is checked before every noise
// pass.
func (d *Device) MeasureAveragedContext(ctx context.Context, words []uint32, runs int) ([]float64, error) {
	return d.capture(ctx, words, runs, 0)
}

// CaptureSource adapts the device to per-input trace consumers such as
// leakage.TVLA (the returned function is assignable to a
// leakage.TraceSource): the n-th call, counting from 0, builds the
// program for its input block and returns capture n of it, one noisy
// oscilloscope trace. Repeated captures of one input (TVLA's fixed
// group) therefore draw independent noise. The source numbers its
// calls, so it is not safe for concurrent use.
func (d *Device) CaptureSource(build func(input [16]byte) ([]uint32, error)) func(input [16]byte) ([]float64, error) {
	var next uint64
	return func(input [16]byte) ([]float64, error) {
		index := next
		next++
		words, err := build(input)
		if err != nil {
			return nil, err
		}
		return d.capture(context.Background(), words, 1, index)
	}
}

// capture is the procedure behind every measurement. A fresh core
// runs the program, so every averaging run of it yields the same
// cycles and the same clean emission y; only the noise differs. The
// program is therefore run and emitted once, and the draws keep the
// order of a per-run capture loop — run by run, sample by sample — so
// the mean is bit-identical to re-simulating every run.
func (d *Device) capture(ctx context.Context, words []uint32, runs int, index uint64) ([]float64, error) {
	if runs < 1 {
		return nil, fmt.Errorf("device: need >= 1 run (got %d)", runs)
	}
	y, err := d.emit(ctx, words)
	if err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(programNoiseSeed(d.opts.NoiseSeed, words, index)))
	acc := make([]float64, len(y))
	for r := 0; r < runs; r++ {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		for i, v := range y {
			acc[i] += v + float64(d.opts.NoiseStd*rng.NormFloat64())
		}
	}
	inv := 1 / float64(runs)
	for i := range acc {
		acc[i] *= inv
	}
	return acc, nil
}
