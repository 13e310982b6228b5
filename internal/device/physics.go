// Package device implements the synthetic "real hardware" that stands in
// for the paper's FPGA board, magnetic probe and oscilloscope. It owns a
// ground-truth EM physics model with HIDDEN parameters — per-(cluster,
// stage) baseline amplitudes, per-bit transition weights, per-stage phase
// couplings, a damped-sinusoid pulse shape, a mild amplitude-compression
// nonlinearity, additive noise, and clock/probe imperfections. EMSim (in
// internal/core) never reads these parameters; it must learn them from
// measurements, exactly as the paper learns them from its FPGA.
package device

import (
	"math"
	"math/rand"

	"emsim/internal/cpu"
	"emsim/internal/isa"
	"emsim/internal/signal"
)

// physics holds the hidden ground truth. All fields are unexported on
// purpose: tests inside this package may inspect them, the model may not.
type physics struct {
	// baseAmp[cluster][stage] is the paper's A*: the instruction-dependent
	// switching amplitude of each pipeline stage for each Table I cluster.
	baseAmp [isa.NumClusters][cpu.NumStages]float64
	// nopAmp[stage] is the minimum-activity amplitude of a stage holding
	// a NOP (or a squashed bubble, which gates the same datapaths).
	nopAmp [cpu.NumStages]float64
	// opScale is a small per-mnemonic deviation within its cluster: the
	// reason representative-based training is approximate, and the reason
	// Table I clusters are tight but not perfectly so.
	opScale map[isa.Op]float64
	// bitWeight[stage] weights each transition bit of the stage's latch
	// feature vector; ALU-output and memory-data bits dominate (§III-B).
	bitWeight [cpu.NumStages][]float64
	// coupling[stage] is the per-source phase coefficient in [−1, 1]
	// (constructive or destructive superposition, §III-C).
	coupling [cpu.NumStages]float64
	// delta is the ambient/system offset.
	delta float64
	// stallLeak is the residual fraction of NOP amplitude a power-gated
	// (stalled) stage still emits.
	stallLeak float64
	// bubbleGate is the fraction of NOP amplitude a squashed (flushed)
	// slot emits: its write-enables are zeroed so it clocks less than a
	// live NOP, but the slot logic is not fully gated like a stall.
	bubbleGate float64
	// compress is the strength of the soft amplitude compression — the
	// mild nonlinearity that keeps a linear model from ever reaching
	// 100 % accuracy.
	compress float64
	// kernel is the device's physical pulse shape (Equ. 5 with the
	// device's own θ and T0, which EMSim must fit).
	kernel signal.Kernel
}

// designSeed fixes the parameters tied to the processor's logical design
// and the base probe placement: the paper finds these (M in Equ. 9)
// transfer across boards (§V-C), so they must not vary with the board
// technology seed.
const designSeed int64 = 0x5EED_DE51

// stageActivity is the structural activity pattern of each cluster across
// the pipeline: which stages a cluster's instructions actually exercise.
// Rows follow isa.Cluster order: ALU, Shift, MUL/DIV, Load(mem), Store,
// Cache(hit), Branch.
var stageActivity = [isa.NumClusters][cpu.NumStages]float64{
	{0.80, 0.90, 1.20, 0.15, 0.20}, // ALU (adder/logic datapath)
	{0.80, 0.90, 0.60, 0.15, 0.18}, // Shift (barrel shifter, lighter EX)
	{0.80, 0.90, 1.80, 0.15, 0.90}, // MUL/DIV (iterative EX unit, wide result write)
	{0.80, 0.90, 0.90, 2.20, 0.90}, // Load from memory (miss)
	{0.80, 0.90, 0.90, 1.60, 0.10}, // Store
	{0.80, 0.90, 0.90, 1.20, 0.90}, // Load from cache (hit)
	{1.70, 0.90, 1.45, 0.10, 0.05}, // Branch (predictor/BTB front-end work)
}

// nopActivity is the NOP/bubble background per stage. A NOP is an
// ordinary ADDI through the datapath with zeroed operands, so its
// front-end footprint matches an ALU instruction's (cf. the small
// ADD-vs-NOP SAVAT entries of Table II); it does not touch MEM and its
// x0 register-file write is suppressed in WB.
var nopActivity = [cpu.NumStages]float64{0.80, 0.88, 1.10, 0.10, 0.08}

// latchWordWeight scales the per-bit weights of each stage latch word;
// index [stage][word]. ALU results (EX word 2) and memory data (MEM word
// 1) dominate, reproducing the paper's finding that "flips in the output
// of the ALU and memory have the most significant impacts".
var latchWordWeight = [cpu.NumStages][cpu.MaxLatchWords]float64{
	{0.0004, 0.0008, 0},      // IF: pc, instruction word
	{0.0008, 0.0008, 0.0005}, // ID: rs1, rs2, imm
	{0.0020, 0.0020, 0.0100}, // EX: operands and (dominant) ALU result
	{0.0015, 0.0045, 0},      // MEM: address, data
	{0.0020, 0.0010, 0},      // WB: value, destination one-hot
}

// newPhysics derives a complete hidden parameter set. techSeed governs
// everything tied to the silicon/board (amplitudes, bit weights); the
// design-linked couplings and kernel come from the fixed designSeed.
func newPhysics(techSeed int64) *physics {
	tech := rand.New(rand.NewSource(techSeed))
	design := rand.New(rand.NewSource(designSeed))

	p := &physics{
		delta:      1.54,
		stallLeak:  0.01,
		bubbleGate: 0.35,
		compress:   0.035,
		kernel: signal.Kernel{
			Kind:          signal.KernelSinExp,
			Theta:         2.5,
			Period:        0.25,
			SupportCycles: 3,
		},
	}

	// Technology-dependent amplitudes: structural pattern × board factor.
	for c := 0; c < isa.NumClusters; c++ {
		for s := 0; s < cpu.NumStages; s++ {
			p.baseAmp[c][s] = stageActivity[c][s] * (0.75 + float64(0.5*tech.Float64()))
		}
	}
	for s := 0; s < cpu.NumStages; s++ {
		p.nopAmp[s] = nopActivity[s] * (0.75 + float64(0.5*tech.Float64()))
	}

	// Per-mnemonic deviations within clusters (σ ≈ 4%).
	p.opScale = make(map[isa.Op]float64, isa.NumOps)
	for _, op := range isa.AllOps() {
		p.opScale[op] = 1 + float64(0.04*tech.NormFloat64())
	}

	// Sparse per-bit transition weights: ~55% of bits are irrelevant,
	// which is what lets stepwise regression prune >65% of T. A few "hot"
	// bits (long routing, heavy fan-out) carry several times the typical
	// weight — the heterogeneity that makes the equal-weight model of
	// Equ. 7 miss (Figure 3: "not all the bit-flips have similar impact").
	for s := cpu.Stage(0); s < cpu.NumStages; s++ {
		n := cpu.FeatureBits(s)
		w := make([]float64, n)
		for b := 0; b < n; b++ {
			if tech.Float64() < 0.55 {
				continue
			}
			scale := latchWordWeight[s][b/32]
			w[b] = scale * math.Abs(tech.NormFloat64())
			if tech.Float64() < 0.08 {
				w[b] *= 6
			}
		}
		p.bitWeight[s] = w
	}

	// Design-linked couplings: magnitude in [0.6, 1], random sign.
	for s := 0; s < cpu.NumStages; s++ {
		m := 0.6 + float64(0.4*design.Float64())
		if design.Intn(2) == 0 {
			m = -m
		}
		p.coupling[s] = m
	}
	return p
}

// alpha computes the ground-truth activity factor of stage s this cycle:
// 1 plus the weighted sum of transition bits (the paper's α, but with the
// hidden non-uniform weights the model must learn).
func (p *physics) alpha(s cpu.Stage, st *cpu.StageTrace) float64 {
	a := 1.0
	w := p.bitWeight[s]
	for word := 0; word < cpu.LatchWords(s); word++ {
		f := st.Flip[word]
		if f == 0 {
			continue
		}
		base := 32 * word
		for b := 0; b < 32; b++ {
			if f&(1<<uint(b)) != 0 {
				a += w[base+b]
			}
		}
	}
	return a
}

// stageAmplitude returns one stage's source amplitude for the cycle,
// before coupling.
func (p *physics) stageAmplitude(s cpu.Stage, st *cpu.StageTrace) float64 {
	switch {
	case st.Stalled:
		// Power-gated stage: almost quiet (§IV).
		return p.stallLeak * p.nopAmp[s]
	case st.Bubble:
		return p.bubbleGate * p.nopAmp[s]
	case st.Inst.IsNOP():
		return p.nopAmp[s] * p.alpha(s, st)
	default:
		base := p.baseAmp[st.Cluster()][s] * p.opScale[st.Op]
		return base * p.alpha(s, st)
	}
}

// cycleAmplitude superposes the five per-stage sources (with the probe's
// per-stage loss coefficients β) and applies the soft compression. The
// ambient offset δ comes from the same die, so it attenuates with the
// average loss.
func (p *physics) cycleAmplitude(c *cpu.Cycle, beta *[cpu.NumStages]float64) float64 {
	meanBeta := 0.0
	for s := 0; s < cpu.NumStages; s++ {
		meanBeta += beta[s]
	}
	meanBeta /= cpu.NumStages
	x := p.delta * meanBeta
	for s := cpu.Stage(0); s < cpu.NumStages; s++ {
		amp := p.stageAmplitude(s, &c.Stages[s])
		x += float64(p.coupling[s] * beta[s] * amp)
	}
	return x / (1 + float64(p.compress*math.Abs(x)))
}
