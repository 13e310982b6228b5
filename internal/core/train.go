package core

import (
	"context"
	"fmt"
	"math/bits"

	"emsim/internal/cpu"
	"emsim/internal/linalg"
	"emsim/internal/stats"
)

// This file holds the training campaign's options and the per-phase
// fitting mathematics (ridge baseline, stepwise activity, MISO). The
// pipeline that schedules measurements and drives the phases — parallel
// fan-out, caching, progress, cancellation — lives in trainer.go.

// TrainOptions tunes the training campaign.
type TrainOptions struct {
	// Runs is the number of averaged measurements per sequence (the
	// paper uses 1000 oscilloscope captures; our noise floor needs far
	// fewer). Default 30.
	Runs int
	// Seed drives the random operand/program generation. Default 1.
	// Every phase derives private per-program streams from it, so
	// changing one phase's campaign size never perturbs another's
	// programs.
	Seed int64
	// InstancesPerCluster is the number of random-operand probes per
	// cluster in phase 2. Default 40, at most MaxInstancesPerCluster.
	InstancesPerCluster int
	// MaxActivityBits caps the stepwise selection size. Default 80.
	MaxActivityBits int
	// MixedPrograms and MixedLength size the phase-3 campaign.
	// Defaults: 3 programs of 500 instructions; MixedLength is at most
	// MaxMixedLength.
	MixedPrograms, MixedLength int
	// Workers is the campaign's capture fan-out width: how many
	// goroutines capture probe programs on the device concurrently. The
	// fits run on the goroutine that calls Run. The fitted model is
	// byte-identical at every worker count (per-program noise streams and
	// ordered reduction), so this is purely a wall-clock knob. 0 selects
	// GOMAXPROCS.
	Workers int
	// Progress, when non-nil, receives one event per phase start and
	// per completed measurement. Worker goroutines invoke it
	// concurrently and outside the trainer's internal lock, so it must
	// be safe for concurrent use and tolerate Done counts arriving out
	// of order within a phase (phase boundaries themselves are ordered:
	// every event of one phase is delivered before the next phase
	// starts). The callback must not block for long or it stalls the
	// campaign; it may call back into the Trainer.
	Progress func(Progress) `json:"-"`
	// Cache, when non-nil, lets the campaign reuse the averaged device
	// captures recorded by earlier trainings of devices with the same
	// fingerprint (and share its own). A cache hit skips the device
	// measurement only: the fits still replay the program on the model
	// core. See NewMeasurementCache.
	Cache *MeasurementCache `json:"-"`
}

func (o *TrainOptions) setDefaults() {
	if o.Runs == 0 {
		o.Runs = 30
	}
	if o.Seed == 0 {
		o.Seed = 1
	}
	if o.InstancesPerCluster == 0 {
		o.InstancesPerCluster = 40
	}
	if o.MaxActivityBits == 0 {
		o.MaxActivityBits = 80
	}
	if o.MixedPrograms == 0 {
		o.MixedPrograms = 3
	}
	if o.MixedLength == 0 {
		o.MixedLength = 500
	}
}

// Validate reports why NewTrainer would reject opts: a negative campaign
// size or worker count (zero selects the default), or a campaign size
// past MaxInstancesPerCluster or MaxMixedLength.
func (o TrainOptions) Validate() error {
	for _, f := range []struct {
		name string
		v    int
	}{
		{"run count", o.Runs},
		{"instances per cluster", o.InstancesPerCluster},
		{"activity bit cap", o.MaxActivityBits},
		{"mixed program count", o.MixedPrograms},
		{"mixed length", o.MixedLength},
		{"worker count", o.Workers},
	} {
		if f.v < 0 {
			return fmt.Errorf("core: negative training %s %d", f.name, f.v)
		}
	}
	switch {
	case o.InstancesPerCluster > MaxInstancesPerCluster:
		return fmt.Errorf("core: %d instances per cluster exceeds the limit %d", o.InstancesPerCluster, MaxInstancesPerCluster)
	case o.MixedLength > MaxMixedLength:
		return fmt.Errorf("core: mixed length %d exceeds the limit %d", o.MixedLength, MaxMixedLength)
	}
	return nil
}

// measurement is one program with the per-cycle amplitudes extracted
// from its averaged capture by phase-0 kernel deconvolution; replay
// aligns them with the model core's cycles.
type measurement struct {
	words []uint32
	amps  []float64 // extracted per-cycle amplitudes
}

// phase1Columns is the design width of the baseline fit: an intercept
// plus one column per (amplitude key, stage).
const phase1Columns = 1 + NumAmpKeys*cpu.NumStages

func phase1Col(key int, s cpu.Stage) int { return 1 + key*cpu.NumStages + int(s) }

// fitBaseline solves the phase-1 ridge regression: per-cycle amplitudes
// against stage-occupancy indicators. Stalled stages contribute nothing
// (they are power-gated); bubbles and NOPs share the NOP column. Ridge
// regularization resolves the benign indeterminacies between stages that
// always stall together.
func (t *Trainer) fitBaseline(m *Model, meas []measurement) error {
	// The normal equations XᵀX·β = Xᵀy, row-major; each cycle adds its
	// products to XᵀX's lower triangle, the part SolveCholesky reads.
	const n = phase1Columns
	xtx := make([]float64, n*n)
	xty := make([]float64, n)
	rows := 0
	full := Model{Options: FullModel()}
	err := replay(t.core, meas, func(c *cpu.Cycle, y float64) {
		row := [n]float64{0: 1}
		for s := cpu.Stage(0); s < cpu.NumStages; s++ {
			st := &c.Stages[s]
			if st.Stalled {
				continue
			}
			row[phase1Col(full.ampKeyFor(st), s)] += 1
		}
		for i, ri := range row {
			if ri == 0 {
				continue
			}
			xty[i] += float64(ri * y)
			for j := i; j < n; j++ {
				xtx[j*n+i] += float64(ri * row[j])
			}
		}
		rows++
	})
	if err != nil {
		return err
	}
	if rows < n {
		return fmt.Errorf("only %d cycles for %d unknowns", rows, n)
	}
	// Regularize.
	lambda := float64(1e-3 * float64(rows))
	for i := 0; i < n; i++ {
		xtx[i*n+i] += lambda
	}
	beta, err := linalg.SolveCholesky(n, xtx, xty)
	if err != nil {
		return err
	}
	m.Background = beta[0]
	for key := 0; key < NumAmpKeys; key++ {
		for s := cpu.Stage(0); s < cpu.NumStages; s++ {
			m.Amp[key][s] = beta[phase1Col(key, s)]
		}
	}
	// Initialize the MISO stage to pass-through until phase 3 refits it.
	m.MISOIntercept = m.Background
	for s := range m.MISO {
		m.MISO[s] = 1
	}
	m.SingleIntercept = m.Background
	m.SingleM = 1
	return nil
}

// featureOffsets maps each stage's transition bits into one global
// feature vector.
func featureOffsets() (offsets [cpu.NumStages]int, total int) {
	for s := cpu.Stage(0); s < cpu.NumStages; s++ {
		offsets[s] = total
		total += cpu.FeatureBits(s)
	}
	return offsets, total
}

// flipRecord is one row of the activity fit: every stage's flip words
// this cycle, zero for a stalled stage, which is gated and contributes
// no switching noise. Bit b of word w of stage s is the global feature
// offsets[s]+32·w+b of featureOffsets.
type flipRecord [cpu.NumStages][cpu.MaxLatchWords]uint32

// recordFlips returns c's activity-fit record, and whether c is a row of
// the fit at all: one where any stage flips, stalled stages included.
func recordFlips(c *cpu.Cycle) (rec flipRecord, active bool) {
	for s := range c.Stages {
		st := &c.Stages[s]
		active = active || st.FlipCount() != 0
		if !st.Stalled {
			rec[s] = st.Flip
		}
	}
	return rec, active
}

// flipColumns packs global feature f of every record into column f, 64
// records to a word: bit i%64 of word i/64 is record i's bit, the form
// stats.StepwiseRegression takes.
func flipColumns(recs []flipRecord, offsets [cpu.NumStages]int, total int) [][]uint64 {
	words := (len(recs) + 63) / 64
	buf := make([]uint64, total*words)
	cols := make([][]uint64, total)
	for f := range cols {
		cols[f] = buf[f*words : (f+1)*words : (f+1)*words]
	}
	for i := range recs {
		for s := cpu.Stage(0); s < cpu.NumStages; s++ {
			for w := 0; w < cpu.LatchWords(s); w++ {
				for x := recs[i][s][w]; x != 0; x &= x - 1 {
					cols[offsets[s]+32*w+bits.TrailingZeros32(x)][i/64] |= 1 << (i % 64)
				}
			}
		}
	}
	return cols
}

// fitActivity fits the data-dependent activity term on the residuals of
// the phase-1 model, with stepwise selection over every stage's
// transition bits (the paper's pruning of T), plus the equal-weight
// fallback of Equ. 7 for the Figure 3 ablation. The selection takes its
// 0/1 columns packed from per-cycle flip records.
func (t *Trainer) fitActivity(ctx context.Context, m *Model, meas []measurement) error {
	offsets, total := featureOffsets()

	base := m.WithOptions(ModelOptions{
		PerStageSources: true,
		Activity:        ActivityNone,
		ModelStalls:     true,
		ModelCache:      true,
		ModelFlush:      true,
	})

	var recs []flipRecord
	var resid []float64
	err := replay(t.core, meas, func(c *cpu.Cycle, amp float64) {
		rec, active := recordFlips(c)
		if !active {
			return
		}
		recs = append(recs, rec)
		resid = append(resid, amp-base.CycleAmplitude(c))
	})
	if err != nil {
		return err
	}
	if len(resid) < 50 {
		return fmt.Errorf("only %d activity samples", len(resid))
	}
	// Bound the stepwise cost: a deterministic stride subsample keeps the
	// selection tractable without biasing the cycle mix.
	const maxSamples = 4000
	if len(resid) > maxSamples {
		stride := (len(resid) + maxSamples - 1) / maxSamples
		var rec2 []flipRecord
		var r2 []float64
		for i := 0; i < len(resid); i += stride {
			rec2 = append(rec2, recs[i])
			r2 = append(r2, resid[i])
		}
		recs, resid = rec2, r2
	}

	sw, err := stats.StepwiseRegression(ctx, flipColumns(recs, offsets, total), resid, stats.StepwiseOptions{
		MaxPredictors: t.opts.MaxActivityBits,
	})
	if err != nil {
		return err
	}
	// Distribute the selected global bits back to their stages.
	for s := cpu.Stage(0); s < cpu.NumStages; s++ {
		m.Activity[s] = StageActivityModel{Candidates: cpu.FeatureBits(s)}
	}
	for k, gbit := range sw.Selected {
		for s := cpu.Stage(0); s < cpu.NumStages; s++ {
			lo, hi := offsets[s], offsets[s]+cpu.FeatureBits(s)
			if gbit >= lo && gbit < hi {
				am := &m.Activity[s]
				am.Selected = append(am.Selected, gbit-lo)
				am.Coef = append(am.Coef, sw.Model.Coef[k])
			}
		}
	}
	// The stepwise intercept folds into the background.
	m.Background += sw.Model.Intercept
	m.MISOIntercept = m.Background
	return nil
}

// stageFit is the Equ. 9 regression: it replays meas on core and fits
// the extracted amplitudes against m's per-stage sources u_s. It also
// returns each cycle's summed sources, the single-source ablation's
// regressor, and the amplitudes, in replay order.
func (m *Model) stageFit(core *cpu.CPU, meas []measurement) (*stats.RegressionResult, []float64, []float64, error) {
	var cols [cpu.NumStages + 1][]float64 // each stage's source, then their sum
	var ys []float64
	err := replay(core, meas, func(c *cpu.Cycle, amp float64) {
		sum := 0.0
		for s := cpu.Stage(0); s < cpu.NumStages; s++ {
			u := m.stageSource(s, &c.Stages[s], false)
			cols[s] = append(cols[s], u)
			sum += u
		}
		cols[cpu.NumStages] = append(cols[cpu.NumStages], sum)
		ys = append(ys, amp)
	})
	if err != nil {
		return nil, nil, nil, err
	}
	fit, err := stats.LinearRegression(cpu.NumStages, func(s int, dst []float64) { copy(dst, cols[s]) }, ys)
	return fit, cols[cpu.NumStages], ys, err
}

// fitMISO fits the final combination (Equ. 9) over mixed programs,
// where all clusters share the pipeline.
func (t *Trainer) fitMISO(m *Model, meas []measurement) error {
	fit, single, ys, err := m.stageFit(t.core, meas)
	if err != nil {
		return err
	}
	m.MISOIntercept = fit.Intercept
	for s := 0; s < cpu.NumStages; s++ {
		m.MISO[s] = fit.Coef[s]
	}
	sfit, err := stats.LinearRegression(1, func(_ int, dst []float64) { copy(dst, single) }, ys)
	if err != nil {
		return err
	}
	m.SingleIntercept = sfit.Intercept
	m.SingleM = sfit.Coef[0]
	return nil
}
