package core

import (
	"context"
	"fmt"
	"math/rand"
	"sync"
	"time"

	"emsim/internal/cpu"
	"emsim/internal/device"
	"emsim/internal/obs"
	"emsim/internal/par"
	"emsim/internal/signal"
)

// Trainer span identities: one per pipeline phase, plus the measurement
// fan-out (recorded per worker lane) and the fit step.
var (
	phaseSpans  [NumPhases]obs.SpanID
	spanMeasure = obs.RegisterSpan("trainer.measure")
	spanFit     = obs.RegisterSpan("trainer.fit")
)

func init() {
	for p := Phase(0); p < numPhases; p++ {
		phaseSpans[p] = obs.RegisterSpan("trainer." + p.String())
	}
}

// This file is the staged training pipeline: the phase DAG
// (kernel-fit → baseline → activity → miso) behind Trainer.Run, the
// parallel measurement fan-out, and the progress/timing observability.
// The per-phase fitting mathematics lives in train.go.
//
// Determinism contract: the fitted model is a pure function of
// (device configuration, TrainOptions.{Seed,Runs,campaign sizes}) —
// independent of Workers, of measurement completion order, and of cache
// warmth. Three mechanisms compose to guarantee that:
//
//  1. program generation draws from per-phase, per-program streams
//     (trainStream), never from one shared generator, so the campaign's
//     program list is fixed before any measurement begins;
//  2. every device capture seeds its noise from (device noise seed,
//     program words), so a capture is the same no matter which worker
//     performs it, or when;
//  3. the fan-out reduces into an index-ordered slice, so the fitters
//     always see measurements in campaign order.

// Phase identifies one stage of the training pipeline.
type Phase int

const (
	// PhaseKernel fits the damped-sinusoid clock kernel from an all-NOP
	// capture (§II-C / Figure 1).
	PhaseKernel Phase = iota
	// PhaseBaseline fits the per-(cluster,stage) baseline amplitudes by
	// ridge regression over stage-occupancy indicators (§III-B).
	PhaseBaseline
	// PhaseActivity fits the data-dependent activity factors by stepwise
	// regression on the baseline model's residuals (§III-B).
	PhaseActivity
	// PhaseMISO fits the per-stage combination coefficients (§III-C).
	PhaseMISO

	numPhases
)

// NumPhases is the number of pipeline phases.
const NumPhases = int(numPhases)

// String returns the phase's campaign name.
func (p Phase) String() string {
	switch p {
	case PhaseKernel:
		return "kernel-fit"
	case PhaseBaseline:
		return "baseline"
	case PhaseActivity:
		return "activity"
	case PhaseMISO:
		return "miso"
	}
	return fmt.Sprintf("phase(%d)", int(p))
}

// Progress is one training progress event: Done of Total measurements
// of the named phase are complete, Elapsed after the phase began. A
// phase announces itself with a Done == 0 event.
type Progress struct {
	Phase   Phase
	Done    int
	Total   int
	Elapsed time.Duration
}

// Trainer fits a Model against a Device by running the four-phase
// measurement campaign. Build one with NewTrainer and drive it with Run;
// a Trainer is single-use.
type Trainer struct {
	dev  *device.Device
	core *cpu.CPU // model core the fits replay programs on
	opts TrainOptions
	fp   uint64 // device fingerprint, the cache-key device component
	lane int    // trace lane the phase/fit spans render on

	kernel signal.Kernel

	mu         sync.Mutex // guards the progress counters; callbacks run outside it
	done       int
	total      int
	phaseStart time.Time
	timings    [NumPhases]time.Duration
}

// ModelConfig is the configuration of the model's core for dev: the
// device's core with the hardware-defect switch cleared, since EMSim
// simulates the *intended* design (that gap is exactly what the
// Figure 11 debugging use-case detects).
func ModelConfig(dev *device.Device) cpu.Config {
	cfg := dev.Options().CPU
	cfg.BuggyMul = false
	return cfg
}

// NewTrainer prepares a training session against dev, or rejects opts
// that fail Validate. The fits replay programs on one model core,
// configured by ModelConfig.
func NewTrainer(dev *device.Device, opts TrainOptions) (*Trainer, error) {
	if err := opts.Validate(); err != nil {
		return nil, err
	}
	opts.setDefaults()
	core, err := cpu.New(ModelConfig(dev))
	if err != nil {
		return nil, err
	}
	return &Trainer{dev: dev, core: core, opts: opts, fp: dev.Fingerprint(), lane: obs.NextLane()}, nil
}

// Train runs the full campaign and returns the fitted model. It is the
// blocking convenience form of NewTrainer + Run.
func Train(dev *device.Device, opts TrainOptions) (*Model, error) {
	t, err := NewTrainer(dev, opts)
	if err != nil {
		return nil, err
	}
	//emsim:ignore ctxflow Train is the documented blocking convenience form; cancellable callers use NewTrainer + Run
	return t.Run(context.Background())
}

// Stream indices for campaign programs that are not members of a
// numbered per-program family (those use their family index).
const (
	streamCombo = 1 << 20 // combination-benchmark group generation
	streamMixed = 1 << 21 // the phase-2 mixed augmentation program
)

// trainStream returns the generator for one program-generation stream,
// keyed by (campaign seed, phase, stream index). Independent streams per
// program are what make the campaign's program list a function of the
// options alone: growing one phase's campaign, or reordering its
// measurements, never perturbs the programs of another.
func trainStream(seed int64, p Phase, index int64) *rand.Rand {
	return rand.New(rand.NewSource(int64(par.Stream(seed, uint64(p), uint64(index)))))
}

// Run executes the campaign: measure and fit each phase in DAG order,
// reporting progress to the options' callback. It returns early with
// ctx's error if the context is cancelled mid-campaign (a worker notices
// within one program simulation plus one noise pass of its averaged
// capture, and every worker goroutine has exited by the time Run
// returns). The result for a given device and options is byte-identical
// at every worker count.
func (t *Trainer) Run(ctx context.Context) (*Model, error) {
	m := &Model{
		SamplesPerCycle: t.dev.SamplesPerCycle(),
		Options:         FullModel(),
	}

	// ---- Phase 0: kernel fit (§II-C / Figure 1) ----
	_, err := t.runPhase(ctx, PhaseKernel, [][]uint32{allNOPProgram(64)}, func(ys [][]float64) error {
		steady, err := steadyRegion(ys[0], t.dev.SamplesPerCycle(), 8)
		if err != nil {
			return err
		}
		kernel, _, err := FitKernel(steady, t.dev.SamplesPerCycle(), signal.KernelSinExp)
		if err != nil {
			return fmt.Errorf("kernel fit: %w", err)
		}
		t.kernel = kernel
		m.Kernel = kernel
		return nil
	})
	if err != nil {
		return nil, err
	}

	// ---- Phase 1: baseline amplitudes A (§III-B) ----
	// Isolated NOP→inst→NOP sequences with zero operands establish each
	// cluster's per-stage footprint; a combination-benchmark group (the
	// kind of sequence the paper's 16 k-measurement campaign consists of)
	// provides the dense occupancy mixes that make every (class, stage)
	// column — including the NOP and bubble baselines, which sparse
	// sequences exercise only in lock-step — individually identifiable.
	p1 := zeroOperandPrograms()
	p1 = append(p1, allNOPProgram(64))
	comboWords, err := CombinationGroup(NumGroups-1, trainStream(t.opts.Seed, PhaseBaseline, streamCombo), false)
	if err != nil {
		return nil, err
	}
	p1 = append(p1, comboWords)
	ys1, err := t.runPhase(ctx, PhaseBaseline, p1, func(ys [][]float64) error {
		meas, err := t.extract(p1, ys)
		if err != nil {
			return err
		}
		return t.fitBaseline(m, meas)
	})
	if err != nil {
		return nil, err
	}
	comboY := ys1[len(ys1)-1]

	// ---- Phase 2: activity factors via stepwise regression (§III-B) ----
	// Isolated random-operand probes, augmented with a mixed-instruction
	// sequence and the phase-1 combination group so the regression sees
	// transition-bit correlations as they occur with every cluster in
	// flight.
	p2, err := randomOperandPrograms(func(i int) *rand.Rand {
		return trainStream(t.opts.Seed, PhaseActivity, int64(i))
	}, t.opts.InstancesPerCluster)
	if err != nil {
		return nil, err
	}
	mixWords, err := MixedProgram(trainStream(t.opts.Seed, PhaseActivity, streamMixed), t.opts.MixedLength)
	if err != nil {
		return nil, err
	}
	p2 = append(p2, mixWords)
	_, err = t.runPhase(ctx, PhaseActivity, p2, func(ys [][]float64) error {
		meas, err := t.extract(append(p2, comboWords), append(ys, comboY))
		if err != nil {
			return err
		}
		return t.fitActivity(ctx, m, meas)
	})
	if err != nil {
		return nil, err
	}

	// ---- Phase 3: MISO combination coefficients M (§III-C) ----
	// Mixed programs where all clusters share the pipeline, plus one
	// combination-benchmark group to keep the fit calibrated on the
	// all-clusters-in-flight regime the paper measures its 16 k
	// sequences in.
	var p3 [][]uint32
	for i := 0; i < t.opts.MixedPrograms; i++ {
		words, err := MixedProgram(trainStream(t.opts.Seed, PhaseMISO, int64(i)), t.opts.MixedLength)
		if err != nil {
			return nil, err
		}
		p3 = append(p3, words)
	}
	combo3, err := CombinationGroup(NumGroups-2, trainStream(t.opts.Seed, PhaseMISO, streamCombo), false)
	if err != nil {
		return nil, err
	}
	p3 = append(p3, combo3)
	_, err = t.runPhase(ctx, PhaseMISO, p3, func(ys [][]float64) error {
		meas, err := t.extract(p3, ys)
		if err != nil {
			return err
		}
		return t.fitMISO(m, meas)
	})
	if err != nil {
		return nil, err
	}
	return m, nil
}

// PhaseTimings returns the wall-clock duration of each completed phase
// (measurement fan-out plus fit). Durations are observability output
// only; they never influence the fitted model.
func (t *Trainer) PhaseTimings() [NumPhases]time.Duration {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.timings
}

// runPhase drives one phase: announce it, fan the programs out across
// the measurement workers, hand the index-ordered captures to fit, and
// record the phase timing.
func (t *Trainer) runPhase(ctx context.Context, p Phase, programs [][]uint32, fit func([][]float64) error) ([][]float64, error) {
	t.beginPhase(p, len(programs))
	obs.Begin(phaseSpans[p], t.lane)
	ys, err := t.measureAll(ctx, p, programs)
	if err == nil && fit != nil {
		obs.Begin(spanFit, t.lane)
		err = fit(ys)
		obs.End(spanFit, t.lane)
	}
	obs.End(phaseSpans[p], t.lane)
	t.endPhase(p)
	if err != nil {
		return nil, fmt.Errorf("core: %s: %w", p, err)
	}
	return ys, nil
}

// newLane gives a measurement worker the trace lane its measure spans
// render on: a worker's only state, since every worker measures on the
// one Device and the fits replay programs on the Trainer's model core.
func newLane() (int, error) { return obs.NextLane(), nil }

// measureOne returns the averaged device capture of one program,
// through the measurement cache when one is attached.
func (t *Trainer) measureOne(ctx context.Context, lane int, words []uint32) ([]float64, error) {
	obs.Begin(spanMeasure, lane)
	defer obs.End(spanMeasure, lane)
	key := measurementKey{device: t.fp, runs: t.opts.Runs, program: par.HashWords(words)}
	if y := t.opts.Cache.get(key); y != nil {
		return y, nil
	}
	y, err := t.dev.MeasureAveragedContext(ctx, words, t.opts.Runs)
	if err != nil {
		return nil, err
	}
	t.opts.Cache.put(key, y)
	return y, nil
}

// measureAll measures every program of one phase on par.Ordered and
// returns the captures in program order, so completion order can never
// leak into the fit and the lowest-index error wins.
//
//emsim:ordered
func (t *Trainer) measureAll(ctx context.Context, phase Phase, programs [][]uint32) ([][]float64, error) {
	results := make([][]float64, len(programs))
	err := par.Ordered(ctx, len(programs), t.opts.Workers, newLane,
		func(ctx context.Context, lane, i int) ([]float64, error) {
			y, err := t.measureOne(ctx, lane, programs[i])
			if err == nil {
				t.noteProgress(phase)
			}
			return y, err
		},
		func(i int, y []float64) error {
			results[i] = y
			return nil
		})
	if err != nil {
		return nil, err
	}
	return results, nil
}

// extract pairs each program with the amplitudes extracted from its
// capture with the phase-0 kernel. Extraction happens after the cache,
// which is what keeps cache hits kernel-agnostic.
func (t *Trainer) extract(programs [][]uint32, ys [][]float64) ([]measurement, error) {
	out := make([]measurement, len(ys))
	for i, y := range ys {
		amps, err := ExtractAmplitudes(y, t.dev.SamplesPerCycle(), t.kernel)
		if err != nil {
			return nil, err
		}
		out[i] = measurement{words: programs[i], amps: amps}
	}
	return out, nil
}

// replay runs each measurement's program on the model core and hands
// every cycle, with the amplitude extracted for it, to visit:
// measurement by measurement, cycle by cycle, the order the fits sum in.
// The alignment holds only if the model and the device agree on the
// cycle count, so a disagreement is an error.
func replay(core *cpu.CPU, meas []measurement, visit func(c *cpu.Cycle, amp float64)) error {
	for _, me := range meas {
		n := 0
		err := core.RunProgramTo(me.words, cpu.CycleSinkFunc(func(c *cpu.Cycle) error {
			if n < len(me.amps) {
				visit(c, me.amps[n])
			}
			n++
			return nil
		}))
		if err != nil {
			return fmt.Errorf("model core failed: %w", err)
		}
		if n != len(me.amps) {
			return fmt.Errorf("model (%d cycles) and device (%d cycles) disagree on timing", n, len(me.amps))
		}
	}
	return nil
}

func (t *Trainer) beginPhase(p Phase, total int) {
	t.mu.Lock()
	t.done, t.total = 0, total
	//emsim:ignore determinism phase timings are observability output only; they never feed fitted parameters
	t.phaseStart = time.Now()
	t.mu.Unlock()
	// The callback runs outside t.mu: it is foreign code and may call
	// back into the trainer (PhaseTimings takes the same mutex).
	if t.opts.Progress != nil {
		t.opts.Progress(Progress{Phase: p, Done: 0, Total: total})
	}
}

func (t *Trainer) noteProgress(p Phase) {
	t.mu.Lock()
	t.done++
	done, total, start := t.done, t.total, t.phaseStart
	t.mu.Unlock()
	// The callback runs outside t.mu (see beginPhase); concurrent
	// workers may therefore deliver completion events out of order.
	if t.opts.Progress != nil {
		//emsim:ignore determinism progress timings are observability output only
		t.opts.Progress(Progress{Phase: p, Done: done, Total: total, Elapsed: time.Since(start)})
	}
}

func (t *Trainer) endPhase(p Phase) {
	t.mu.Lock()
	defer t.mu.Unlock()
	//emsim:ignore determinism phase timings are observability output only
	t.timings[p] = time.Since(t.phaseStart)
}
