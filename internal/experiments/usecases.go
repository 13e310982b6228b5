package experiments

import (
	"fmt"
	"math"
	"math/rand"

	"emsim/internal/aes"
	"emsim/internal/core"
	"emsim/internal/cpu"
	"emsim/internal/device"
	"emsim/internal/isa"
	"emsim/internal/leakage"
	"emsim/internal/stats"
)

// ----------------------------------------------------------------------
// Figure 10: TVLA on AES-128, measured vs simulated.

// Figure10Result compares the fixed-vs-random TVLA assessment of AES-128
// computed from real measurements and from simulated signals (§VI-A).
type Figure10Result struct {
	RealMaxT, SimMaxT             float64
	RealLeakPoints, SimLeakPoints int
	// ProfileCorrelation correlates the |t| profiles of the two
	// assessments (coarse 64-segment envelopes) — the paper's claim is
	// that the simulated TVLA "follows the same pattern" as the real one.
	ProfileCorrelation float64
	TracesPerGroup     int
}

// Figure10 runs the TVLA protocol with a device-backed source (noisy
// captures) and a model-backed source (simulated signals plus the same
// measurement-noise level).
func (e *Env) Figure10(tracesPerGroup int) (*Figure10Result, error) {
	if tracesPerGroup < 2 {
		tracesPerGroup = 40
	}
	var key [16]byte
	copy(key[:], []byte{0x2b, 0x7e, 0x15, 0x16, 0x28, 0xae, 0xd2, 0xa6,
		0xab, 0xf7, 0x15, 0x88, 0x09, 0xcf, 0x4f, 0x3c})
	var fixed [16]byte
	copy(fixed[:], []byte("emsim-fixed-pt!!"))

	build := func(input [16]byte) ([]uint32, error) {
		prog, err := aes.BuildProgram(key, input)
		if err != nil {
			return nil, err
		}
		return prog.Words, nil
	}
	realSrc := leakage.TraceSource(e.Dev.CaptureSource(build))
	// One streaming Session serves the whole simulated campaign: every
	// AES trace reuses the same core, amplitude path and signal buffer.
	sess, err := core.NewSession(e.Model, e.Dev.Options().CPU)
	if err != nil {
		return nil, err
	}
	noise := rand.New(rand.NewSource(e.Seed + 4242))
	noiseStd := e.Dev.Options().NoiseStd
	simSrc := leakage.SimSource(sess, build, func() float64 {
		return noiseStd * noise.NormFloat64()
	})

	real, err := leakage.TVLA(realSrc, fixed, e.rng(1000), tracesPerGroup)
	if err != nil {
		return nil, fmt.Errorf("real TVLA: %w", err)
	}
	sim, err := leakage.TVLA(simSrc, fixed, e.rng(1001), tracesPerGroup)
	if err != nil {
		return nil, fmt.Errorf("simulated TVLA: %w", err)
	}
	corr, err := tProfileCorrelation(real.T, sim.T, 64)
	if err != nil {
		return nil, err
	}
	return &Figure10Result{
		RealMaxT:           real.MaxAbsT,
		SimMaxT:            sim.MaxAbsT,
		RealLeakPoints:     len(real.LeakyPoints),
		SimLeakPoints:      len(sim.LeakyPoints),
		ProfileCorrelation: corr,
		TracesPerGroup:     tracesPerGroup,
	}, nil
}

// tProfileCorrelation folds two |t| traces into `segments` coarse bins
// and correlates them (traces may differ slightly in length).
func tProfileCorrelation(a, b []float64, segments int) (float64, error) {
	n := len(a)
	if len(b) < n {
		n = len(b)
	}
	if n < segments {
		segments = n
	}
	fold := func(t []float64) []float64 {
		out := make([]float64, segments)
		for s := 0; s < segments; s++ {
			lo, hi := s*n/segments, (s+1)*n/segments
			m := 0.0
			for i := lo; i < hi; i++ {
				m += math.Abs(t[i])
			}
			if hi > lo {
				out[s] = m / float64(hi-lo)
			}
		}
		return out
	}
	return stats.Pearson(fold(a[:n]), fold(b[:n]))
}

func (r *Figure10Result) String() string {
	return fmt.Sprintf("Figure 10 / §VI-A — TVLA of AES-128, measured vs simulated (%d traces/group)\n"+
		"  real:      max|t| %.1f, %d leaky points\n"+
		"  simulated: max|t| %.1f, %d leaky points\n"+
		"  |t| profile correlation: %.3f (paper: simulated TVLA follows the real pattern)\n",
		r.TracesPerGroup, r.RealMaxT, r.RealLeakPoints, r.SimMaxT, r.SimLeakPoints, r.ProfileCorrelation)
}

// ----------------------------------------------------------------------
// Table II: SAVAT, measured vs simulated.

// TableIIResult holds both SAVAT matrices and their agreement.
type TableIIResult struct {
	Real, Sim   [leakage.NumSavatInsts][leakage.NumSavatInsts]float64
	Correlation float64 // corr of off-diagonal entries between R and S
}

// TableII computes the 6×6 SAVAT matrix from device measurements and from
// model simulations.
func (e *Env) TableII() (*TableIIResult, error) {
	const perHalf, periods = 8, 16
	spc := e.Dev.SamplesPerCycle()
	runReal := func(words []uint32) ([]float64, int, error) {
		sig, err := e.Dev.MeasureAveraged(words, e.Runs)
		if err != nil {
			return nil, 0, err
		}
		return sig, len(sig) / spc, nil
	}
	// All 36 simulated microbenchmarks stream through one reusable
	// Session instead of allocating a core and trace per cell.
	sess, err := core.NewSession(e.Model, e.Dev.Options().CPU)
	if err != nil {
		return nil, err
	}
	runSim := func(words []uint32) ([]float64, int, error) {
		sig, err := sess.SimulateProgram(words)
		if err != nil {
			return nil, 0, err
		}
		return sig, sess.Cycles(), nil
	}
	real, err := leakage.SavatMatrix(runReal, spc, perHalf, periods)
	if err != nil {
		return nil, err
	}
	sim, err := leakage.SavatMatrix(runSim, spc, perHalf, periods)
	if err != nil {
		return nil, err
	}
	var rs, ss []float64
	for i := 0; i < leakage.NumSavatInsts; i++ {
		for j := 0; j < leakage.NumSavatInsts; j++ {
			if i == j {
				continue
			}
			rs = append(rs, real[i][j])
			ss = append(ss, sim[i][j])
		}
	}
	corr, err := stats.Pearson(rs, ss)
	if err != nil {
		return nil, err
	}
	return &TableIIResult{Real: real, Sim: sim, Correlation: corr}, nil
}

func (r *TableIIResult) String() string {
	header := []string{"A \\ B"}
	for b := leakage.SavatInst(0); b < leakage.NumSavatInsts; b++ {
		header = append(header, b.String()+"(R)", b.String()+"(S)")
	}
	rows := make([][]string, leakage.NumSavatInsts)
	for a := leakage.SavatInst(0); a < leakage.NumSavatInsts; a++ {
		row := []string{a.String()}
		for b := leakage.SavatInst(0); b < leakage.NumSavatInsts; b++ {
			row = append(row, fmt.Sprintf("%.3f", r.Real[a][b]), fmt.Sprintf("%.3f", r.Sim[a][b]))
		}
		rows[a] = row
	}
	return "Table II — SAVAT, real (R) vs simulated (S)\n" +
		table(header, rows) +
		fmt.Sprintf("off-diagonal correlation(R, S) = %.3f (paper: simulations highly match measurements)\n", r.Correlation)
}

// ----------------------------------------------------------------------
// Figure 11: hardware debugging via reference-model mismatch.

// Figure11Result is the defective-multiplier detection experiment. The
// detection statistic is the per-cycle *amplitude* deviation between the
// measured signal and the reference simulation — the quantity Figure 11
// plots ("the amplitude of the measured signal in the third cycle is
// significantly lower than in the simulation").
type Figure11Result struct {
	// HealthyAccuracy/BuggyAccuracy score the reference simulation
	// against the healthy and the defective chip.
	HealthyAccuracy, BuggyAccuracy float64
	// BuggyMaxDev is the peak golden-contrast deficit (suspect minus
	// known-good); HealthyMaxDev is the off-MUL noise floor of that
	// contrast. The alarm fires when the peak clears 3× the floor at a
	// MUL execute cycle.
	HealthyMaxDev, BuggyMaxDev float64
	// DefectDetected reports whether the deviation peaks at a MUL execute
	// cycle AND clearly exceeds the healthy chip's level.
	DefectDetected bool
	// WorstCycle is where the deviation peaks; MulExecuteCycles lists the
	// MUL's EX cycles for reference.
	WorstCycle       int
	MulExecuteCycles []int
}

// Figure11 simulates the intended design as the "expected" reference and
// compares it against measurements from a healthy chip and from one with
// the defective multiplier (low-byte-only operands).
func (e *Env) Figure11() (*Figure11Result, error) {
	var seq []isa.Inst
	// Full-width operands, like the random operands the model trained on:
	// the defective chip truncates them internally.
	seq = append(seq, isa.Li(isa.T1, -0x12345678)...)
	seq = append(seq, isa.Li(isa.T2, -0x00C0FFEE)...)
	for i := 0; i < 6; i++ {
		seq = append(seq, isa.Nop())
	}
	for i := 0; i < 4; i++ {
		seq = append(seq, isa.Mul(isa.T0, isa.T1, isa.T2))
		for n := 0; n < 8; n++ {
			seq = append(seq, isa.Nop())
		}
	}
	words := nopSandwich(4, 4, seq...)

	healthy, err := e.score(e.Model, e.Dev, words)
	if err != nil {
		return nil, err
	}
	opts := e.Dev.Options()
	opts.CPU.BuggyMul = true
	opts.NoiseSeed += 31
	buggyDev, err := device.New(opts)
	if err != nil {
		return nil, err
	}
	buggy, err := e.score(e.Model, buggyDev, words)
	if err != nil {
		return nil, err
	}

	// Locate the MUL execute cycles in the reference trace.
	c := cpu.MustNew(core.ModelConfig(e.Dev))
	tr, err := c.RunProgram(words)
	if err != nil {
		return nil, err
	}
	var mulEx []int
	for i := range tr {
		st := &tr[i].Stages[cpu.EX]
		if st.Op == isa.MUL && !st.Bubble && !st.Stalled {
			mulEx = append(mulEx, i)
		}
	}
	// Detection statistic: per-cycle amplitude *deficit* relative to the
	// reference — a defect that removes switching makes the measured
	// amplitude "significantly lower than that of in the simulation"
	// (Figure 11). Any model-fitting bias affects the healthy instance the
	// same way, so the suspect chip's deficit profile is contrasted
	// against a known-good instance's (the golden-die variant of the
	// paper's reference-model methodology).
	hDef, err := e.deficitSeries(healthy)
	if err != nil {
		return nil, err
	}
	bDef, err := e.deficitSeries(buggy)
	if err != nil {
		return nil, err
	}
	n := len(bDef)
	if len(hDef) < n {
		n = len(hDef)
	}
	contrast := make([]float64, n)
	for i := range contrast {
		contrast[i] = bDef[i] - hDef[i]
	}
	worst, worstVal := 0, 0.0
	for i, v := range contrast {
		if v > worstVal {
			worst, worstVal = i, v
		}
	}
	// Noise floor: mean |contrast| away from any MUL execute cycle.
	var off []float64
	for i, v := range contrast {
		nearMul := false
		for _, m := range mulEx {
			if absInt(i-m) <= 1 {
				nearMul = true
			}
		}
		if !nearMul {
			off = append(off, math.Abs(v))
		}
	}
	floor := stats.Mean(off)
	atMul := false
	for _, m := range mulEx {
		if absInt(worst-m) <= 1 {
			atMul = true
		}
	}
	return &Figure11Result{
		HealthyAccuracy:  healthy.Accuracy,
		BuggyAccuracy:    buggy.Accuracy,
		HealthyMaxDev:    floor,
		BuggyMaxDev:      worstVal,
		DefectDetected:   atMul && worstVal > 3*floor,
		WorstCycle:       worst,
		MulExecuteCycles: mulEx,
	}, nil
}

// deficitSeries returns the per-cycle amplitude deficit of the measurement
// below the reference simulation, with the pipeline fill/drain transients
// zeroed (amplitude extraction is least reliable there).
func (e *Env) deficitSeries(cmp *core.Comparison) ([]float64, error) {
	spc := e.Dev.SamplesPerCycle()
	ma, err := core.ExtractAmplitudes(cmp.Measured, spc, e.Model.Kernel)
	if err != nil {
		return nil, err
	}
	sa, err := core.ExtractAmplitudes(cmp.Simulated, spc, e.Model.Kernel)
	if err != nil {
		return nil, err
	}
	out := make([]float64, len(ma))
	lo, hi := 4, len(ma)-4
	if lo >= hi {
		lo, hi = 0, len(ma)
	}
	for i := lo; i < hi; i++ {
		out[i] = sa[i] - ma[i]
	}
	return out, nil
}

func absInt(v int) int {
	if v < 0 {
		return -v
	}
	return v
}

func (r *Figure11Result) String() string {
	verdict := "DEFECT LOCALIZED at a MUL execute cycle"
	if !r.DefectDetected {
		verdict = "defect NOT localized"
	}
	return fmt.Sprintf("Figure 11 / §VI-B — hardware debugging by reference-model mismatch\n"+
		"  healthy chip vs reference: accuracy %s, max amplitude deficit %.3f (no alarm)\n"+
		"  buggy multiplier chip:     accuracy %s, max amplitude deficit %.3f at cycle %d\n"+
		"  MUL EX cycles: %v\n"+
		"  %s\n",
		fmtPct(r.HealthyAccuracy), r.HealthyMaxDev, fmtPct(r.BuggyAccuracy), r.BuggyMaxDev,
		r.WorstCycle, r.MulExecuteCycles, verdict)
}

// ----------------------------------------------------------------------
// Predictor study (§IV): different branch predictors, same EM story.

// PredictorStudyResult compares model accuracy across direction
// predictors; the paper reports no statistically significant difference.
type PredictorStudyResult struct {
	Names      []string
	Accuracies []float64
}

// PredictorStudy retrains nothing: it rebuilds device+model per predictor
// would be expensive, so it checks that the *existing* model explains
// devices with different predictors equally well once the traces match —
// which they do, because prediction only changes flush timing, which the
// trace captures. Each predictor gets its own matched device/core pair.
func (e *Env) PredictorStudy() (*PredictorStudyResult, error) {
	progs, err := e.robustnessPrograms(2)
	if err != nil {
		return nil, err
	}
	res := &PredictorStudyResult{}
	for _, kind := range []cpu.PredictorKind{cpu.PredictTwoLevel, cpu.PredictGShare, cpu.PredictBimodal, cpu.PredictNotTaken} {
		opts := e.Dev.Options()
		opts.CPU.Predictor = kind
		dev, err := device.New(opts)
		if err != nil {
			return nil, err
		}
		sum := 0.0
		for _, w := range progs {
			cmp, err := e.score(e.Model, dev, w)
			if err != nil {
				return nil, err
			}
			sum += cmp.Accuracy
		}
		res.Names = append(res.Names, kind.String())
		res.Accuracies = append(res.Accuracies, sum/float64(len(progs)))
	}
	return res, nil
}

func (r *PredictorStudyResult) String() string {
	rows := make([][]string, len(r.Names))
	for i := range r.Names {
		rows[i] = []string{r.Names[i], fmtPct(r.Accuracies[i])}
	}
	return "§IV — branch predictor study (model accuracy per predictor)\n" +
		table([]string{"predictor", "accuracy"}, rows) +
		"(paper: no statistically significant difference between predictors)\n"
}
