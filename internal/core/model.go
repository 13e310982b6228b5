// Package core implements EMSim itself: the trainable
// multi-input-single-output (MISO) model of §III that predicts the EM
// side-channel signal of a program cycle by cycle from the
// microarchitectural trace, plus the microarchitectural-event modeling of
// §IV (stalls, cache misses, misprediction flushes).
//
// The model's life cycle mirrors the paper:
//
//  1. Train fits the model against measurements of a Device (the
//     synthetic stand-in for the paper's FPGA + probe + oscilloscope):
//     the reconstruction kernel (§II-C), the baseline per-stage
//     amplitudes A (§III-B), the data-dependent activity weights via
//     stepwise regression (§III-B), and the per-stage combination
//     coefficients M (§III-C).
//  2. A Session renders the predicted analog signal for any program by
//     running the model's own cycle-accurate core and streaming each
//     cycle through the fitted parameters — no further measurements
//     needed.
//
// Ablation switches in ModelOptions reproduce the paper's accuracy-
// degradation experiments (Figures 2, 3, 5, 6, 7).
package core

import (
	"math"

	"emsim/internal/cpu"
	"emsim/internal/isa"
	"emsim/internal/signal"
)

// ActivityModel selects how data-dependent switching activity scales the
// baseline amplitudes.
type ActivityModel int

// The activity-factor variants of Figure 3.
const (
	// ActivityLR is the paper's linear-regression model over per-bit
	// transitions, pruned by stepwise selection (Equ. 8).
	ActivityLR ActivityModel = iota
	// ActivityAverage treats every bit flip equally (Equ. 7), the
	// ablation shown to be inadequate in Figure 3 (bottom).
	ActivityAverage
	// ActivityNone ignores data-dependent activity entirely.
	ActivityNone
)

func (a ActivityModel) String() string {
	switch a {
	case ActivityLR:
		return "stepwise-LR"
	case ActivityAverage:
		return "average"
	case ActivityNone:
		return "none"
	}
	return "unknown"
}

// ModelOptions are the simulation-time switches for the paper's ablation
// studies. The zero value disables everything; use FullModel for the
// paper's complete model.
type ModelOptions struct {
	// PerStageSources models each pipeline stage as an independent EM
	// source (§III-A). Disabled, the processor is a single source with
	// stage-averaged amplitudes (Figure 2 bottom).
	PerStageSources bool
	// Activity selects the data-dependent activity model (Figure 3).
	Activity ActivityModel
	// ModelStalls zeroes the amplitude of stalled stages (§IV,
	// Figure 5). Disabled, stalled stages emit as if active.
	ModelStalls bool
	// ModelCache distinguishes cache hits from misses and keeps the
	// miss wait cycles quiet (Figure 6). Disabled, every load looks like
	// a hit and the wait cycles emit as active MEM cycles.
	ModelCache bool
	// ModelFlush gives misprediction bubbles their own (squashed-slot)
	// amplitude class (Figure 7). Disabled, bubbles are assumed to emit
	// like live NOPs, the pipeline-unaware approximation the paper shows
	// deviating.
	ModelFlush bool
}

// FullModel returns the complete EMSim configuration.
func FullModel() ModelOptions {
	return ModelOptions{
		PerStageSources: true,
		Activity:        ActivityLR,
		ModelStalls:     true,
		ModelCache:      true,
		ModelFlush:      true,
	}
}

// NumAmpKeys is the number of per-stage amplitude classes: the seven
// Table I clusters, the NOP baseline, and the squashed-bubble class
// (flush bubbles clock less hardware than a live NOP).
const NumAmpKeys = isa.NumClusters + 2

// ampKeyNOP and ampKeyBubble index the two baseline amplitude classes.
const (
	ampKeyNOP    = isa.NumClusters
	ampKeyBubble = isa.NumClusters + 1
)

// AmpKeyName names an amplitude class for reports.
func AmpKeyName(k int) string {
	switch k {
	case ampKeyNOP:
		return "NOP"
	case ampKeyBubble:
		return "bubble"
	}
	return isa.Cluster(k).String()
}

// StageActivityModel is one pipeline stage's fitted data-activity term.
type StageActivityModel struct {
	// Selected and Coef describe the stepwise-LR variant: the chosen
	// transition-bit indices and their weights.
	Selected []int
	Coef     []float64
	// Candidates is the total number of candidate bits (for the pruning
	// ratio the paper reports).
	Candidates int
}

// PrunedFraction returns the share of candidate transition bits the
// stepwise selection dropped (the paper reports >65 %).
func (m *StageActivityModel) PrunedFraction() float64 {
	if m.Candidates == 0 {
		return 0
	}
	return 1 - float64(len(m.Selected))/float64(m.Candidates)
}

// contribution evaluates the stage's fitted (stepwise-LR) data-activity
// term for one cycle: the sum, in Selected order, of the coefficients
// whose transition bit flipped. Transition bits are data, so a branch
// per bit mispredicts about half the time; instead every coefficient is
// added, masked to +0 when its bit did not flip. That is bit-identical
// to skipping it: s starts at +0 and a round-to-nearest sum is -0 only
// when both operands are, so s is never -0 and s + (+0) == s.
func (m *StageActivityModel) contribution(st *cpu.StageTrace) float64 {
	s := 0.0
	coef := m.Coef[:len(m.Selected)]
	for i, bit := range m.Selected {
		on := uint64(st.Flip[uint(bit)/32]>>(uint(bit)%32)) & 1
		s += math.Float64frombits(math.Float64bits(coef[i]) & -on)
	}
	return s
}

// Model is a trained EMSim instance.
type Model struct {
	// SamplesPerCycle is the analog rate the model was trained at.
	SamplesPerCycle int
	// Kernel is the fitted reconstruction kernel (§II-C).
	Kernel signal.Kernel
	// Amp[key][stage] is the fitted baseline amplitude table Â: the
	// product of the paper's A with the stage coupling/loss absorbed, as
	// seen from the training probe position.
	Amp [NumAmpKeys][cpu.NumStages]float64
	// Background is the fitted ambient offset.
	Background float64
	// Activity holds the per-stage data-activity models.
	Activity [cpu.NumStages]StageActivityModel
	// MISO is the phase-3 combination fit: X = Intercept + Σ M[s]·u_s.
	MISOIntercept float64
	MISO          [cpu.NumStages]float64
	// SingleM is the single-source ablation's combination coefficient.
	SingleM         float64
	SingleIntercept float64
	// Options are the simulation-time ablation switches.
	Options ModelOptions
	// Beta optionally rescales each stage source for a probe position
	// other than the training one (§V-D). Nil means β = 1.
	Beta *[cpu.NumStages]float64
}

// ampKeyFor classifies a stage occupancy into an amplitude key, honoring
// the cache and flush ablations.
func (m *Model) ampKeyFor(st *cpu.StageTrace) int {
	switch {
	case st.Bubble:
		if m.Options.ModelFlush {
			return ampKeyBubble
		}
		// Without flush modeling the simulator assumes the squashed
		// slots behave like the injected NOPs the hardware substitutes —
		// the pipeline-unaware view the paper shows deviating (Figure 7).
		return ampKeyNOP
	case st.Inst.IsNOP():
		return ampKeyNOP
	default:
		cl := st.Cluster()
		if !m.Options.ModelCache && cl == isa.ClusterLoad {
			cl = isa.ClusterCache
		}
		return int(cl)
	}
}

// stageSource computes u_s for one stage of one cycle: the baseline
// amplitude for the occupant class plus the data-activity term, with
// stall handling per §IV. With averaged set, the baseline is the
// stage-averaged table entry of the single-source ablation (Figure 2
// bottom) — the activity and stall handling are shared between the two
// paths so the amplitude kernel has exactly one implementation of them.
func (m *Model) stageSource(s cpu.Stage, st *cpu.StageTrace, averaged bool) float64 {
	if st.Stalled && m.Options.ModelStalls {
		// Stalled stages are power-gated (§IV) — unless the cache model
		// is disabled, in which case a miss's wait cycles in MEM emit as
		// if the access were still active (the Figure 6 ablation). The
		// single-source ablation has no per-stage identity to apply that
		// exception to.
		if averaged || m.Options.ModelCache || s != cpu.MEM || !st.CacheAccess {
			return 0
		}
	}
	key := m.ampKeyFor(st)
	var u float64
	if averaged {
		for ss := 0; ss < cpu.NumStages; ss++ {
			u += m.Amp[key][ss]
		}
		u /= cpu.NumStages
	} else {
		u = m.Amp[key][s]
	}
	switch m.Options.Activity {
	case ActivityLR:
		u += m.Activity[s].contribution(st)
	case ActivityAverage:
		// Equ. 7 verbatim: every flip scales the baseline equally,
		// with no fitted coefficient — the ablation Figure 3 shows
		// mispredicting amplitudes.
		u *= 1 + float64(st.FlipCount())/float64(cpu.FeatureBits(s))
	}
	if !averaged && m.Beta != nil {
		u *= m.Beta[s]
	}
	return u
}

// StageContribution returns pipeline stage s's signed source term
// M[s]·u_s for one cycle's stage record — the per-stage breakdown that
// Attribute aggregates over a whole trace, exposed per cycle so
// streaming consumers (a Session tee, the serving layer's per-stage
// amplitude accumulator) can compute attributions without materializing
// a cpu.Trace. Only meaningful with PerStageSources enabled; the
// single-source ablation has no per-stage identity.
//
//emsim:noalloc
func (m *Model) StageContribution(s cpu.Stage, st *cpu.StageTrace) float64 {
	return m.MISO[s] * m.stageSource(s, st, false)
}

// CycleAmplitude predicts the per-cycle signal amplitude X[n] (Equ. 9).
//
//emsim:noalloc
func (m *Model) CycleAmplitude(c *cpu.Cycle) float64 {
	if m.Options.PerStageSources {
		x := m.MISOIntercept
		for s := cpu.Stage(0); s < cpu.NumStages; s++ {
			x += m.MISO[s] * m.stageSource(s, &c.Stages[s], false)
		}
		return x
	}
	// Single-source ablation: stage-averaged amplitudes, one coefficient.
	sum := 0.0
	for s := cpu.Stage(0); s < cpu.NumStages; s++ {
		if u := m.stageSource(s, &c.Stages[s], true); u != 0 {
			sum += u
		}
	}
	return m.SingleIntercept + m.SingleM*sum
}

// SimulateProgram runs the program on a fresh core with the given
// configuration and returns the trace plus the predicted analog signal —
// the design-stage flow of §VI that needs no physical measurement. It
// renders through a one-off Session with a trace recorder attached.
//
// SimulateProgram allocates a core, a trace and a signal per call. For
// campaign workloads that simulate many programs under one
// configuration, a Session amortizes all of that: see NewSession.
func (m *Model) SimulateProgram(cfg cpu.Config, words []uint32) (cpu.Trace, []float64, error) {
	s, err := NewSession(m, cfg)
	if err != nil {
		return nil, nil, err
	}
	var tr cpu.Trace
	s.SetTee(cpu.AppendTo(&tr))
	// The session is private to this call, so its buffer is returned
	// without a copy.
	y, err := s.SimulateProgramInto(nil, words)
	if err != nil {
		return nil, nil, err
	}
	return tr, y, nil
}

// WithOptions returns a copy of the model with different ablation
// switches (the fitted parameters are shared).
func (m *Model) WithOptions(opts ModelOptions) *Model {
	c := *m
	c.Options = opts
	return &c
}

// WithBeta returns a copy of the model with per-stage loss coefficients
// applied (the §V-D probe-position adjustment).
func (m *Model) WithBeta(beta [cpu.NumStages]float64) *Model {
	c := *m
	c.Beta = &beta
	return &c
}
