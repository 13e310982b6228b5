// Package leakage implements the two side-channel leakage metrics of the
// paper's use-case section (§VI-A): Test Vector Leakage Assessment (TVLA,
// fixed-vs-random Welch t-test over traces) and the Signal Available to
// Attacker (SAVAT) metric of Callan et al. (alternating-instruction
// microbenchmark plus spectral spike energy). Both run identically on
// measured and simulated signals — that interchangeability is EMSim's
// central claim.
package leakage

import (
	"fmt"
	"math"
	"math/rand"

	"emsim/internal/asm"
	"emsim/internal/isa"
	"emsim/internal/signal"
	"emsim/internal/stats"
)

// TraceSource produces one side-channel trace for one input block. A
// device-backed source captures a real (noisy) measurement (see
// Device.CaptureSource in internal/device); a model-backed source
// simulates the signal, typically through a reusable core.Session via
// SimSource (adding its own measurement-noise model so the t-test
// statistics are comparable).
type TraceSource func(input [16]byte) ([]float64, error)

// Simulator yields one simulated signal per program image. A
// *core.Session satisfies it; because TVLA campaigns call the source
// thousands of times, a session-backed simulator (one resettable core,
// reused buffers) is strongly preferred over spinning up a fresh
// simulation pipeline per trace.
type Simulator interface {
	SimulateProgram(words []uint32) ([]float64, error)
}

// SimSource builds a model-backed TraceSource: build maps each input
// block to a program image, sim renders its signal, and noise — when
// non-nil — returns an additive per-sample measurement-noise term so the
// simulated t-test statistics are comparable to measured ones.
func SimSource(sim Simulator, build func(input [16]byte) ([]uint32, error), noise func() float64) TraceSource {
	return func(input [16]byte) ([]float64, error) {
		words, err := build(input)
		if err != nil {
			return nil, err
		}
		sig, err := sim.SimulateProgram(words)
		if err != nil {
			return nil, err
		}
		if noise != nil {
			for i := range sig {
				sig[i] += noise()
			}
		}
		return sig, nil
	}
}

// TVLAResult is a fixed-vs-random leakage assessment.
type TVLAResult struct {
	// T is the per-sample Welch t statistic.
	T []float64
	// LeakyPoints are the sample indices where |t| exceeds the 4.5
	// threshold.
	LeakyPoints []int
	// MaxAbsT is the peak |t| over the trace.
	MaxAbsT float64
	// Traces is the number of traces per group.
	Traces int
}

// TVLA runs the fixed-vs-random protocol: tracesPerGroup traces with the
// fixed input and tracesPerGroup traces with fresh random inputs, then a
// per-sample Welch t-test. Traces whose lengths differ (data-dependent
// cache timing) are truncated to the shortest.
//
// TVLA is a thin wrapper over TVLAStream — each trace is folded into the
// streaming accumulator the moment the source returns it and never
// buffered; equivalence with the two-pass stats.TVLATrace is pinned by
// tests and the FuzzStreamEquivalence target.
func TVLA(src TraceSource, fixed [16]byte, rng *rand.Rand, tracesPerGroup int) (*TVLAResult, error) {
	st := NewTVLAStream()
	if err := st.Collect(src, fixed, rng, tracesPerGroup); err != nil {
		return nil, err
	}
	return st.Snapshot()
}

// Collect is the one fixed-vs-random pair loop: per pair, a trace of
// the fixed input, then one of a random input read from rng; both are
// folded in once the pair is complete.
func (s *TVLAStream) Collect(src TraceSource, fixed [16]byte, rng *rand.Rand, tracesPerGroup int) error {
	if tracesPerGroup < 2 {
		return fmt.Errorf("leakage: TVLA needs >= 2 traces per group (got %d)", tracesPerGroup)
	}
	for i := 0; i < tracesPerGroup; i++ {
		tf, err := src(fixed)
		if err != nil {
			return fmt.Errorf("leakage: fixed trace %d: %w", i, err)
		}
		var input [16]byte
		rng.Read(input[:])
		tr, err := src(input)
		if err != nil {
			return fmt.Errorf("leakage: random trace %d: %w", i, err)
		}
		if err := s.AddFixed(tf); err != nil {
			return err
		}
		if err := s.AddRandom(tr); err != nil {
			return err
		}
	}
	if s.Samples() == 0 {
		return fmt.Errorf("leakage: empty traces")
	}
	return nil
}

func abs(v float64) float64 {
	if v < 0 {
		return -v
	}
	return v
}

// Leaks reports whether the assessment crossed the TVLA threshold
// anywhere.
func (r *TVLAResult) Leaks() bool { return len(r.LeakyPoints) > 0 }

// SavatInst enumerates the instruction events of the paper's Table II.
type SavatInst int

// The six Table II events. LDM is a load served by memory (cache miss),
// LDC a load served by the cache.
const (
	LDM SavatInst = iota
	LDC
	NOP
	ADD
	MUL
	DIV

	NumSavatInsts = 6
)

var savatNames = [NumSavatInsts]string{"LDM", "LDC", "NOP", "ADD", "MUL", "DIV"}

// String returns the Table II row/column label.
func (s SavatInst) String() string {
	if int(s) < len(savatNames) {
		return savatNames[s]
	}
	return fmt.Sprintf("savat(%d)", int(s))
}

// SavatProgram builds the A/B alternation microbenchmark of Callan et
// al.: perHalf instances of A, then perHalf instances of B, repeated
// `periods` times (fully unrolled so no loop control pollutes the
// signal). The warm-up prologue touches the LDC address so cache-hit
// loads actually hit, and LDM loads walk fresh cache lines.
func SavatProgram(a, b SavatInst, perHalf, periods int) ([]uint32, error) {
	if perHalf < 1 || periods < 1 {
		return nil, fmt.Errorf("leakage: SAVAT needs positive perHalf/periods")
	}
	if perHalf > 15 {
		return nil, fmt.Errorf("leakage: perHalf %d too large for the miss-stride window", perHalf)
	}
	bld := asm.NewBuilder()
	const (
		hitBase  = 0x2000
		missBase = 0x8000
	)
	// Prologue: set up operand registers and warm the hit line.
	bld.Li(isa.S0, hitBase)
	bld.Li(isa.S1, missBase)
	bld.Li(isa.T0, 0x12345678)
	bld.Li(isa.T1, 0x0F0F3355)
	bld.I(isa.Lw(isa.T2, isa.S0, 0)) // warm the LDC line
	bld.Nop(4)

	// Every period has the exact same instruction sequence — including a
	// fixed per-period miss-base advance — so the alternation frequency
	// is a pure tone (uneven periods would smear the spectral spike the
	// metric integrates).
	missOff := int32(0)
	emit := func(inst SavatInst) {
		switch inst {
		case NOP:
			bld.I(isa.Nop())
		case ADD:
			bld.I(isa.Add(isa.T3, isa.T0, isa.T1))
		case MUL:
			bld.I(isa.Mul(isa.T3, isa.T0, isa.T1))
		case DIV:
			bld.I(isa.Div(isa.T3, isa.T0, isa.T1))
		case LDC:
			bld.I(isa.Lw(isa.T3, isa.S0, 0))
		case LDM:
			bld.I(isa.Lw(isa.T3, isa.S1, missOff))
			missOff += 64 // next cache line
		}
	}
	usesLDM := a == LDM || b == LDM
	for p := 0; p < periods; p++ {
		missOff = 0
		for i := 0; i < perHalf; i++ {
			emit(a)
		}
		for i := 0; i < perHalf; i++ {
			emit(b)
		}
		if usesLDM {
			// Advance past every line this period touched (same cost in
			// every period, keeping the period length constant).
			bld.I(isa.Addi(isa.S1, isa.S1, int32(64*(2*perHalf+1))))
		}
	}
	bld.I(isa.Ebreak())
	p, err := bld.Assemble()
	if err != nil {
		return nil, err
	}
	return p.Words, nil
}

// Savat computes the SAVAT value from a captured/simulated signal of the
// alternation microbenchmark: the spectral energy of the spike at the
// alternation frequency f_p = 1/t_p (§VI-A). totalCycles is the program's
// cycle count and periods the number of A/B alternation periods; spc the
// samples per cycle.
//
// Because the prologue and variable stall counts blur the nominal period,
// the spike is located by peak search in a ±25 % window around the
// estimated f_p; the surrounding spectral noise floor is subtracted so
// that a no-difference pair (the Table II diagonal) scores ≈ 0.
func Savat(sig []float64, spc, totalCycles, periods int) (float64, error) {
	if spc < 1 || totalCycles < 1 || periods < 1 {
		return 0, fmt.Errorf("leakage: bad SAVAT geometry (spc=%d cycles=%d periods=%d)", spc, totalCycles, periods)
	}
	cycles := len(sig) / spc
	if cycles < 2*periods {
		return 0, fmt.Errorf("leakage: %d cycles cannot hold %d alternation periods", cycles, periods)
	}
	// Per-cycle RMS envelope: the clock tone and pulse shape drop out,
	// leaving the instruction-level amplitude alternation.
	env := make([]float64, cycles)
	for n := 0; n < cycles; n++ {
		env[n] = math.Sqrt(signal.Energy(sig[n*spc:(n+1)*spc]) / float64(spc))
	}
	mean := stats.Mean(env)
	for i := range env {
		env[i] -= mean
	}
	power := func(k float64) float64 {
		var re, im float64
		w := 2 * math.Pi * k / float64(cycles)
		for n, v := range env {
			re += v * math.Cos(w*float64(n))
			im -= v * math.Sin(w*float64(n))
		}
		return (re*re + im*im) / float64(cycles)
	}
	// The A-vs-B difference lives in the ODD harmonics of the alternation
	// frequency: anything both halves share (including each instruction's
	// own stall/access micro-pattern) is periodic at half the alternation
	// period and lands on even harmonics only. Identical halves (the
	// Table II diagonal) therefore cancel to ≈ 0. The fundamental index
	// sits near `periods` but is shifted by the prologue, so scan a small
	// fractional-frequency window for the strongest odd-harmonic comb.
	const nHarmonics = 5 // odd harmonics 1,3,5,7,9
	comb := func(f1 float64) float64 {
		s := 0.0
		for h := 0; h < nHarmonics; h++ {
			k := f1 * float64(2*h+1)
			if k < float64(cycles)/2 {
				s += power(k)
			}
		}
		return s
	}
	spike := 0.0
	for f1 := float64(periods) - 1; f1 <= float64(periods)+3; f1 += 0.05 {
		if s := comb(f1); s > spike {
			spike = s
		}
	}
	// Noise floor: the same comb evaluated away from any alternation
	// harmonic.
	floor := comb(float64(periods) * 1.437)
	v := spike - floor
	if v < 0 {
		v = 0
	}
	// Normalize per cycle so values compare across program durations.
	return v / float64(cycles) * 1e2, nil
}

// SavatMatrix computes the full Table II: the SAVAT value for every
// ordered pair of events, using the given signal source (measured or
// simulated).
//
// run executes a program and returns the signal plus the cycle count.
func SavatMatrix(run func(words []uint32) (sig []float64, cycles int, err error),
	spc, perHalf, periods int) ([NumSavatInsts][NumSavatInsts]float64, error) {

	var out [NumSavatInsts][NumSavatInsts]float64
	for a := SavatInst(0); a < NumSavatInsts; a++ {
		for b := SavatInst(0); b < NumSavatInsts; b++ {
			words, err := SavatProgram(a, b, perHalf, periods)
			if err != nil {
				return out, err
			}
			sig, cycles, err := run(words)
			if err != nil {
				return out, fmt.Errorf("leakage: SAVAT %v/%v: %w", a, b, err)
			}
			v, err := Savat(sig, spc, cycles, periods)
			if err != nil {
				return out, err
			}
			out[a][b] = v
		}
	}
	return out, nil
}
