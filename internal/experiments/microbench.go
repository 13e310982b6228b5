package experiments

import (
	"fmt"
	"math"
	"strings"

	"emsim/internal/asm"
	"emsim/internal/core"
	"emsim/internal/isa"
	"emsim/internal/signal"
	"emsim/internal/stats"
)

// nopSandwich builds NOP×pre → insts → NOP×post → EBREAK.
func nopSandwich(pre, post int, insts ...isa.Inst) []uint32 {
	b := asm.NewBuilder()
	b.Nop(pre)
	b.I(insts...)
	b.Nop(post)
	b.I(isa.Ebreak())
	return b.MustAssemble().Words
}

// ----------------------------------------------------------------------
// Figure 1: reconstruction kernel comparison.

// KernelScore is one kernel family's fit quality.
type KernelScore struct {
	Kind  signal.KernelKind
	NCC   float64 // waveform correlation of reconstruction vs measurement
	RMSE  float64
	Theta float64
	T0    float64
}

// Figure1Result compares rect / exp / sin-exp reconstructions of a
// measured signal (Figure 1).
type Figure1Result struct {
	Scores []KernelScore
	Best   signal.KernelKind
}

// Figure1 measures a mixed program and reconstructs it with each kernel
// family: the per-cycle amplitudes are extracted and re-rendered with the
// fitted kernel, and the rendering is scored against the measurement.
func (e *Env) Figure1() (*Figure1Result, error) {
	words, err := core.MixedProgram(e.rng(1), 200)
	if err != nil {
		return nil, err
	}
	measured, err := e.Dev.MeasureAveraged(words, e.Runs)
	if err != nil {
		return nil, err
	}
	// Steady all-NOP capture for kernel fitting.
	nop := nopSandwich(64, 0)
	nopSig, err := e.Dev.MeasureAveraged(nop, e.Runs)
	if err != nil {
		return nil, err
	}
	spc := e.Dev.SamplesPerCycle()
	steady := nopSig[8*spc : len(nopSig)-8*spc]

	res := &Figure1Result{}
	bestNCC := -2.0
	for _, kind := range []signal.KernelKind{signal.KernelRect, signal.KernelExp, signal.KernelSinExp} {
		k, _, err := core.FitKernel(steady, spc, kind)
		if err != nil {
			return nil, err
		}
		amps, err := core.ExtractAmplitudes(measured, spc, k)
		if err != nil {
			return nil, err
		}
		recon, err := signal.Reconstruct(amps, spc, k)
		if err != nil {
			return nil, err
		}
		ncc, err := signal.NCC(measured, recon)
		if err != nil {
			return nil, err
		}
		rmse, err := signal.RMSE(signal.NormalizeMeanAbs(measured), signal.NormalizeMeanAbs(recon))
		if err != nil {
			return nil, err
		}
		res.Scores = append(res.Scores, KernelScore{Kind: kind, NCC: ncc, RMSE: rmse, Theta: k.Theta, T0: k.Period})
		if ncc > bestNCC {
			bestNCC, res.Best = ncc, kind
		}
	}
	return res, nil
}

func (r *Figure1Result) String() string {
	rows := make([][]string, 0, len(r.Scores))
	for _, s := range r.Scores {
		rows = append(rows, []string{
			s.Kind.String(), fmt.Sprintf("%.4f", s.NCC), fmt.Sprintf("%.4f", s.RMSE),
			fmt.Sprintf("%.2f", s.Theta), fmt.Sprintf("%.3f", s.T0),
		})
	}
	return "Figure 1 — signal reconstruction by kernel family\n" +
		table([]string{"kernel", "NCC", "RMSE", "theta", "T0"}, rows) +
		fmt.Sprintf("best: %v (paper: sin·exp explains the received signal best)\n", r.Best)
}

// ----------------------------------------------------------------------
// Figures 2-7 share this shape: a targeted sequence scored under the full
// model and under one ablation.

// AblationCompare is a full-vs-ablated comparison on one targeted
// sequence. The paper's Figures 2–7 show the ablated model's *amplitude*
// deviating from the measurement, so besides the (shape-oriented)
// per-cycle correlation this records the normalized RMSE and the
// correlation of the per-cycle amplitude series, which expose amplitude
// errors the scale-invariant metric forgives.
type AblationCompare struct {
	Name            string
	Sequence        string
	FullAccuracy    float64
	AblatedAccuracy float64
	FullRMSE        float64
	AblatedRMSE     float64
	FullAmpCorr     float64
	AblatedAmpCorr  float64
	AblationName    string
	PerCycleFull    []float64
	PerCycleAblated []float64
}

func (r *AblationCompare) String() string {
	return fmt.Sprintf("%s — %s\n"+
		"  full model:   accuracy %s, norm. RMSE %.3f, amplitude corr %.3f\n"+
		"  %-13s accuracy %s, norm. RMSE %.3f, amplitude corr %.3f (RMSE ×%.1f)\n",
		r.Name, r.Sequence,
		fmtPct(r.FullAccuracy), r.FullRMSE, r.FullAmpCorr,
		r.AblationName+":", fmtPct(r.AblatedAccuracy), r.AblatedRMSE, r.AblatedAmpCorr,
		safeRatio(r.AblatedRMSE, r.FullRMSE))
}

func safeRatio(a, b float64) float64 {
	if b == 0 {
		return math.Inf(1)
	}
	return a / b
}

// ampCorrOf correlates the per-cycle amplitude series of the measured and
// simulated signals of a comparison.
func (e *Env) ampCorrOf(cmp *core.Comparison) (float64, error) {
	spc := e.Dev.SamplesPerCycle()
	ma, err := core.ExtractAmplitudes(cmp.Measured, spc, e.Model.Kernel)
	if err != nil {
		return 0, err
	}
	sa, err := core.ExtractAmplitudes(cmp.Simulated, spc, e.Model.Kernel)
	if err != nil {
		return 0, err
	}
	return stats.Pearson(ma, sa)
}

func (e *Env) compareAblation(name, seqDesc string, words []uint32, ablationName string, ablated core.ModelOptions) (*AblationCompare, error) {
	full, err := e.score(e.Model, nil, words)
	if err != nil {
		return nil, err
	}
	abl, err := e.score(e.Model.WithOptions(ablated), nil, words)
	if err != nil {
		return nil, err
	}
	fc, err := e.ampCorrOf(full)
	if err != nil {
		return nil, err
	}
	ac, err := e.ampCorrOf(abl)
	if err != nil {
		return nil, err
	}
	return &AblationCompare{
		Name:            name,
		Sequence:        seqDesc,
		FullAccuracy:    full.Accuracy,
		AblatedAccuracy: abl.Accuracy,
		FullRMSE:        full.RMSE,
		AblatedRMSE:     abl.RMSE,
		FullAmpCorr:     fc,
		AblatedAmpCorr:  ac,
		AblationName:    ablationName,
		PerCycleFull:    full.PerCycle,
		PerCycleAblated: abl.PerCycle,
	}, nil
}

// Figure2 reproduces the per-stage-sources experiment: an ADD progressing
// through the pipeline amid NOPs, modeled with independent stage sources
// vs a single averaged source.
func (e *Env) Figure2() (*AblationCompare, error) {
	var seq []isa.Inst
	for i := 0; i < 8; i++ {
		seq = append(seq, isa.Add(isa.T0, isa.T1, isa.T2))
		for n := 0; n < 7; n++ {
			seq = append(seq, isa.Nop())
		}
	}
	words := nopSandwich(8, 8, seq...)
	opts := core.FullModel()
	opts.PerStageSources = false
	return e.compareAblation("Figure 2", "NOP → ADD → NOP (per-stage vs single source)",
		words, "single source", opts)
}

// Figure3 reproduces the activity-factor experiment: random-operand
// instructions, LR-fitted per-bit weights vs the equal-weight Equ. 7.
func (e *Env) Figure3() (*AblationCompare, error) {
	rng := e.rng(3)
	b := asm.NewBuilder()
	b.Nop(8)
	for i := 0; i < 24; i++ {
		b.Li(isa.T1, int32(rng.Uint32()))
		b.Li(isa.T2, int32(rng.Uint32()))
		b.Nop(6)
		b.I(isa.Xor(isa.T0, isa.T1, isa.T2))
		b.Nop(6)
	}
	b.I(isa.Ebreak())
	words := b.MustAssemble().Words
	opts := core.FullModel()
	opts.Activity = core.ActivityAverage
	return e.compareAblation("Figure 3", "random-operand XOR (LR activity factor vs averaging)",
		words, "average α", opts)
}

// Figure4Result shows MISO superposition: the signal of ADD and SHIFT in
// flight together, versus each in isolation.
type Figure4Result struct {
	AccuracyCombined float64
	// SuperpositionError is the RMS difference between the measured
	// combined amplitude sequence and the non-interacting sum of the
	// isolated ones (which ignores superposition coefficients) — nonzero,
	// which is exactly why M must be fitted (§III-C).
	SuperpositionError float64
}

// Figure4 measures ADD and SHIFT in isolation and combined.
func (e *Env) Figure4() (*Figure4Result, error) {
	spc := e.Dev.SamplesPerCycle()
	extract := func(words []uint32) ([]float64, error) {
		sig, err := e.Dev.MeasureAveraged(words, e.Runs)
		if err != nil {
			return nil, err
		}
		return core.ExtractAmplitudes(sig, spc, e.Model.Kernel)
	}
	add := isa.Add(isa.T0, isa.T1, isa.T2)
	shift := isa.Slli(isa.T3, isa.T4, 3)

	aIso, err := extract(nopSandwich(8, 10, add))
	if err != nil {
		return nil, err
	}
	sIso, err := extract(nopSandwich(9, 9, shift)) // shifted by one slot
	if err != nil {
		return nil, err
	}
	both, err := extract(nopSandwich(8, 9, add, shift))
	if err != nil {
		return nil, err
	}
	nop, err := extract(nopSandwich(8, 11))
	if err != nil {
		return nil, err
	}
	// Non-interacting estimate: iso(add) + iso(shift) − baseline.
	n := len(both)
	est := make([]float64, n)
	for i := 0; i < n; i++ {
		est[i] = at(aIso, i) + at(sIso, i) - at(nop, i)
	}
	se, err := signal.RMSE(both, est)
	if err != nil {
		return nil, err
	}
	cmp, err := e.score(e.Model, nil, nopSandwich(8, 9, add, shift))
	if err != nil {
		return nil, err
	}
	return &Figure4Result{AccuracyCombined: cmp.Accuracy, SuperpositionError: se}, nil
}

func at(xs []float64, i int) float64 {
	if i < len(xs) {
		return xs[i]
	}
	return 0
}

func (r *Figure4Result) String() string {
	return fmt.Sprintf("Figure 4 — MISO superposition (NOP, ADD, SHIFT, NOP)\n"+
		"  fitted-M model accuracy on the combined sequence: %s\n"+
		"  naive add-the-isolated-signals error (RMS):       %.4f (why M must be fitted)\n",
		fmtPct(r.AccuracyCombined), r.SuperpositionError)
}

// Figure5 reproduces the stall experiment: a long-latency MUL freezes the
// front end; the model with and without stall modeling.
func (e *Env) Figure5() (*AblationCompare, error) {
	var seq []isa.Inst
	seq = append(seq, isa.Li(isa.T1, 0x7731)...)
	seq = append(seq, isa.Li(isa.T2, 0x1F2F)...)
	for i := 0; i < 6; i++ {
		seq = append(seq, isa.Nop())
	}
	for i := 0; i < 6; i++ {
		seq = append(seq, isa.Mul(isa.T0, isa.T1, isa.T2))
		for n := 0; n < 8; n++ {
			seq = append(seq, isa.Nop())
		}
		seq = append(seq, isa.Div(isa.T3, isa.T1, isa.T2))
		for n := 0; n < 10; n++ {
			seq = append(seq, isa.Nop())
		}
	}
	words := nopSandwich(4, 4, seq...)
	opts := core.FullModel()
	opts.ModelStalls = false
	return e.compareAblation("Figure 5", "MUL/DIV stalls (with vs without stall modeling)",
		words, "no stalls", opts)
}

// Figure6 reproduces the cache experiment: hit and miss loads, the model
// with and without cache modeling.
func (e *Env) Figure6() (*AblationCompare, error) {
	b := asm.NewBuilder()
	b.Nop(6)
	b.Li(isa.S0, 0x4000)
	b.Li(isa.S1, 0x40000)
	b.I(isa.Lw(isa.T0, isa.S0, 0)) // warm
	b.Nop(6)
	for i := 0; i < 8; i++ {
		b.I(isa.Lw(isa.T1, isa.S1, int32(64*i))) // miss
		b.Nop(6)
		b.I(isa.Lw(isa.T2, isa.S0, 0)) // hit
		b.Nop(6)
	}
	b.I(isa.Ebreak())
	words := b.MustAssemble().Words
	opts := core.FullModel()
	opts.ModelCache = false
	return e.compareAblation("Figure 6", "LD hit vs miss (with vs without cache modeling)",
		words, "no cache", opts)
}

// Figure7 reproduces the misprediction experiment: taken branches flushing
// two slots, the model with and without flush modeling.
func (e *Env) Figure7() (*AblationCompare, error) {
	b := asm.NewBuilder()
	b.Nop(8)
	for i := 0; i < 10; i++ {
		// A forward always-taken branch: mispredicted until the BTB and
		// direction predictor warm up, then correctly predicted — both
		// regimes appear in the trace, as in Figure 7's left/right halves.
		b.I(isa.Beq(isa.Zero, isa.Zero, 12))
		b.I(isa.Addi(isa.T0, isa.T0, 1)) // flushed wrong-path work
		b.I(isa.Addi(isa.T1, isa.T1, 1))
		b.Nop(6)
	}
	b.I(isa.Ebreak())
	words := b.MustAssemble().Words
	opts := core.FullModel()
	opts.ModelFlush = false
	return e.compareAblation("Figure 7", "branch misprediction flushes (with vs without bubble modeling)",
		words, "no flush", opts)
}

// ----------------------------------------------------------------------

// stringsJoin is a tiny helper used by several results.
func stringsJoin(parts []string, sep string) string { return strings.Join(parts, sep) }
