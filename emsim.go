// Package emsim is a from-scratch reproduction of "EMSim: A
// Microarchitecture-Level Simulation Tool for Modeling Electromagnetic
// Side-Channel Signals" (HPCA 2020) as a self-contained Go library.
//
// EMSim predicts the analog EM side-channel signal of a program cycle by
// cycle from a detailed microarchitectural model: a cycle-accurate 5-stage
// in-order RV32IM core feeds a trained multi-input-single-output (MISO)
// model in which every pipeline stage is an independent EM source
// (baseline amplitude per Table I instruction cluster, data-dependent
// activity from per-bit transition regressions, fitted superposition
// coefficients), with stalls, cache misses and misprediction flushes
// stamped into the per-cycle amplitudes and a fitted damped-sinusoid
// kernel rendering the analog waveform.
//
// Because the paper's physical bench (FPGA board, magnetic probe,
// oscilloscope) is hardware we do not have, the library ships a synthetic
// Device with hidden physics that plays that role; the Model never reads
// the hidden parameters — it learns them from measurements, exactly as
// the paper's model learns from its FPGA. See DESIGN.md for the
// substitution argument and EXPERIMENTS.md for paper-vs-measured results.
//
// # Quick start
//
//	dev := emsim.NewDevice(emsim.DefaultDeviceOptions())
//	model, err := emsim.Train(dev, emsim.TrainOptions{})
//	...
//	prog := emsim.MustAssemble(`
//	    li   t0, 10
//	loop:
//	    addi t0, t0, -1
//	    bnez t0, loop
//	    ebreak
//	`)
//	trace, signal, err := model.SimulateProgram(emsim.DefaultCPUConfig(), prog.Words)
//
// # Campaign simulation: the Session hot path
//
// SimulateProgram is the one-shot flow: it allocates a core, a full
// cycle trace and a signal per call. Campaign workloads — TVLA over
// thousands of AES traces, SAVAT matrices, design-space sweeps — should
// use a Session instead, the streaming pipeline that owns a resettable
// core plus reusable amplitude/signal buffers and simulates each trace
// without materializing intermediates:
//
//	sess, err := emsim.NewSession(model, emsim.DefaultCPUConfig())
//	var sig []float64
//	for _, words := range programs {
//	    sig, err = sess.SimulateProgramInto(sig, words) // ~0 allocs steady-state
//	    ...                                             // consume sig before the next call
//	}
//	results, err := sess.SimulateBatch(programs, 0)     // or fan across GOMAXPROCS workers
//
// The subsystems live in internal packages; this package re-exports the
// public surface:
//
//   - internal/cpu — the cycle-accurate RV32IM pipeline and its traces
//   - internal/asm, internal/isa — assembler and instruction set
//   - internal/device — the synthetic measurement bench
//   - internal/core — the EMSim model: training, simulation, ablations
//   - internal/leakage — TVLA and SAVAT leakage metrics
//   - internal/aes — AES-128 in RV32IM assembly (the TVLA workload)
//   - internal/defend — pluggable countermeasures and their evaluation
//   - internal/experiments — one harness per paper table/figure
package emsim

import (
	"context"
	"math/rand"

	"emsim/internal/aes"
	"emsim/internal/asm"
	"emsim/internal/core"
	"emsim/internal/cpu"
	"emsim/internal/defend"
	"emsim/internal/device"
	"emsim/internal/experiments"
	"emsim/internal/isa"
	"emsim/internal/leakage"
	"emsim/internal/signal"
)

// Processor simulation.
type (
	// CPU is the cycle-accurate 5-stage RV32IM core (§II-A).
	CPU = cpu.CPU
	// CPUConfig selects cache geometry, predictor, latencies, forwarding.
	CPUConfig = cpu.Config
	// Trace is the per-cycle microarchitectural record a run produces.
	Trace = cpu.Trace
	// Cycle is one clock cycle's record (per-stage occupancy, stalls,
	// flushes, latch transitions).
	Cycle = cpu.Cycle
	// CPUStats summarizes a run (cycles, IPC, misses, mispredictions).
	CPUStats = cpu.Stats
)

// Assembly and programs.
type (
	// Program is an assembled binary image.
	Program = asm.Program
	// Builder constructs programs programmatically with labels.
	Builder = asm.Builder
	// Inst is one decoded RV32IM instruction.
	Inst = isa.Inst
)

// The synthetic measurement bench.
type (
	// Device stands in for the paper's FPGA + probe + oscilloscope.
	Device = device.Device
	// DeviceOptions selects board instance, clock trim, probe position,
	// noise and sampling rate.
	DeviceOptions = device.Options
	// ProbePosition places the magnetic probe over the die.
	ProbePosition = device.ProbePosition
)

// The EMSim model.
type (
	// Model is a trained EMSim instance: simulate any program's EM signal
	// without further measurements.
	Model = core.Model
	// Session is the reusable streaming simulation pipeline: one
	// resettable core plus buffers, ~0 allocations per simulated trace.
	// The *Context method variants (SimulateProgramContext,
	// SimulateBatchContext) accept a context.Context that can cancel a
	// simulation mid-run; the cycle loop checks it every
	// cpu.CtxCheckInterval cycles, so cancellation costs nothing on the
	// hot path and still lands within ~1k cycles.
	Session = core.Session
	// ModelOptions holds the ablation switches of the paper's
	// degradation studies.
	ModelOptions = core.ModelOptions
	// TrainOptions tunes the measurement campaign, including the
	// measurement fan-out width (Workers), a per-phase progress callback
	// (Progress) and an optional measurement cache (Cache).
	TrainOptions = core.TrainOptions
	// Trainer is the staged training pipeline behind Train: explicit
	// kernel-fit → baseline → activity → miso phases driven by Run(ctx),
	// with cancellation, per-phase progress and timings, and a parallel
	// measurement fan-out whose fitted model is byte-identical at any
	// worker count.
	Trainer = core.Trainer
	// TrainPhase identifies one stage of the training pipeline.
	TrainPhase = core.Phase
	// TrainProgress is one progress event of a training campaign.
	TrainProgress = core.Progress
	// MeasurementCache stores measurement artifacts content-addressed by
	// (device fingerprint, averaging depth, program), letting repeated
	// trainings against the same bench skip re-measurement.
	MeasurementCache = core.MeasurementCache
	// Comparison scores a simulated signal against a measurement with
	// the paper's per-cycle correlation metric.
	Comparison = core.Comparison
	// Kernel is a §II-C reconstruction kernel.
	Kernel = signal.Kernel
	// Attribution breaks a simulated signal down by pipeline stage and
	// by instruction (the paper's assessment-and-attribution promise).
	Attribution = core.Attribution
)

// Leakage assessment.
type (
	// TVLAResult is a fixed-vs-random leakage assessment (§VI-A).
	TVLAResult = leakage.TVLAResult
	// TraceSource feeds TVLA with per-input traces.
	TraceSource = leakage.TraceSource
	// SavatInst enumerates Table II's instruction events.
	SavatInst = leakage.SavatInst
	// TVLAStream is the one-pass TVLA assessment: traces fold into
	// running moments one at a time and are discarded, so an
	// arbitrarily long campaign runs in constant memory with the t
	// statistic available at any prefix.
	TVLAStream = leakage.TVLAStream
	// CPAStream is the one-pass correlation power attack; memory is
	// O(guesses × sample points), independent of trace count.
	CPAStream = leakage.CPAStream
	// CPAResult is a CPA ranking outcome.
	CPAResult = leakage.CPAResult
)

// Experiments.
type (
	// Experiments reproduces every table and figure of the paper's
	// evaluation; see internal/experiments for the per-experiment types.
	Experiments = experiments.Env
	// ExperimentsOptions configures the experiment environment.
	ExperimentsOptions = experiments.EnvOptions
)

// AESProgram is an AES-128 encryption image for the simulated core.
type AESProgram = aes.Program

// DefaultCPUConfig returns the paper's processor configuration: 5-stage
// in-order pipeline, 2-level predictor + BTB, 32 KB cache with 1-cycle
// hits and +2-cycle misses, 3-cycle multiply/divide, forwarding on.
func DefaultCPUConfig() CPUConfig { return cpu.DefaultConfig() }

// NewCPU builds a core; it panics on invalid configuration (use cpu.New
// via the config's validation error for graceful handling).
func NewCPU(cfg CPUConfig) *CPU { return cpu.MustNew(cfg) }

// CycleSink consumes per-cycle trace records as a core emits them; see
// CPU.RunTo and CPU.RunProgramTo for streaming runs that never
// materialize a Trace.
type CycleSink = cpu.CycleSink

// NewSession builds a reusable streaming simulation pipeline for
// repeated simulations under one core configuration. Prefer it over
// Model.SimulateProgram whenever more than a handful of programs are
// simulated: steady-state reuse performs ~0 allocations per trace, and
// SimulateBatch fans a program slice across parallel workers. Servers
// and other callers that need deadlines or cancellation use the
// *Context variants (see Session).
func NewSession(m *Model, cfg CPUConfig) (*Session, error) { return core.NewSession(m, cfg) }

// DefaultDeviceOptions returns the baseline synthetic bench: board #1,
// probe centered over the die, 16 samples per clock cycle.
func DefaultDeviceOptions() DeviceOptions { return device.DefaultOptions() }

// NewDevice builds a synthetic device; it panics on invalid options.
func NewDevice(opts DeviceOptions) *Device { return device.MustNew(opts) }

// Train fits an EMSim model against a device with the staged campaign of
// §III: kernel fit, baseline amplitudes, stepwise activity regression,
// MISO coefficients. It is the blocking convenience form of NewTrainer +
// Trainer.Run; use those directly for cancellation, progress reporting
// and phase timings.
func Train(dev *Device, opts TrainOptions) (*Model, error) { return core.Train(dev, opts) }

// NewTrainer prepares a staged training session against dev; drive it
// with Trainer.Run(ctx).
func NewTrainer(dev *Device, opts TrainOptions) (*Trainer, error) {
	return core.NewTrainer(dev, opts)
}

// NewMeasurementCache returns an empty measurement cache to share across
// trainings via TrainOptions.Cache.
func NewMeasurementCache() *MeasurementCache { return core.NewMeasurementCache() }

// FullModel returns the complete model configuration; zero out fields of
// the result to reproduce the paper's ablations.
func FullModel() ModelOptions { return core.FullModel() }

// LoadModelFile reads a trained model previously written with
// Model.SaveFile — the "ship the board's parameters as a library" flow of
// §V-C.
func LoadModelFile(path string) (*Model, error) { return core.LoadModelFile(path) }

// Assemble parses RV32IM assembly text into a program image.
func Assemble(src string) (*Program, error) { return asm.Assemble(src) }

// MustAssemble is Assemble for known-good sources; it panics on error.
func MustAssemble(src string) *Program { return asm.MustAssembleText(src) }

// NewBuilder returns an empty program builder.
func NewBuilder() *Builder { return asm.NewBuilder() }

// BuildAES generates an AES-128 encryption program for one key/plaintext
// pair (round keys precomputed into the image).
func BuildAES(key, plaintext [16]byte) (*AESProgram, error) {
	return aes.BuildProgram(key, plaintext)
}

// TVLA runs the fixed-vs-random t-test protocol over a trace source.
func TVLA(src TraceSource, fixed [16]byte, rng *rand.Rand, tracesPerGroup int) (*TVLAResult, error) {
	return leakage.TVLA(src, fixed, rng, tracesPerGroup)
}

// NewTVLAStream returns an empty streaming TVLA assessment; feed it with
// AddFixed/AddRandom and read the statistic at any prefix via Snapshot.
func NewTVLAStream() *TVLAStream { return leakage.NewTVLAStream() }

// NewCPAStream returns an empty streaming CPA attack over the given
// candidate count. points > 0 restricts the attack to the
// highest-variance columns of the first pilot traces; 0 attacks every
// column.
func NewCPAStream(guesses, points, pilot int) *CPAStream {
	return leakage.NewCPAStream(guesses, points, pilot)
}

// Countermeasure modeling and evaluation.
type (
	// Countermeasure is a pluggable microarchitectural defense; see
	// internal/defend for the built-in implementations (instruction
	// shuffling, dummy insertion, pipeline jitter).
	Countermeasure = defend.Countermeasure

	// DefenseSpec names a countermeasure and its parameters; parse one
	// from "name[:param=val,...]" with ParseDefenseSpec.
	DefenseSpec = defend.Spec

	// DefendedSession simulates traces under an armed countermeasure.
	DefendedSession = defend.Session

	// DefendOptions configures an Evaluate campaign.
	DefendOptions = defend.Options

	// SecurityReport compares defended execution against baseline.
	SecurityReport = defend.SecurityReport
)

// ParseDefenseSpec parses "name[:param=val,...]" into a validated
// countermeasure spec.
func ParseDefenseSpec(s string) (DefenseSpec, error) { return defend.ParseSpec(s) }

// NewDefendedSession builds a simulation session that arms cm per trace;
// a nil countermeasure yields a baseline session.
func NewDefendedSession(m *Model, cfg CPUConfig, cm Countermeasure, seed int64) (*DefendedSession, error) {
	return defend.NewSession(m, cfg, cm, seed)
}

// EvaluateDefense runs the TVLA + CPA attack campaigns against baseline
// and defended AES execution and reports security gained vs cycles lost.
func EvaluateDefense(ctx context.Context, opts DefendOptions) (*SecurityReport, error) {
	return defend.Evaluate(ctx, opts)
}

// The Table II instruction events for SAVAT.
const (
	LDM = leakage.LDM // load served by memory (cache miss)
	LDC = leakage.LDC // load served by the cache
	NOP = leakage.NOP
	ADD = leakage.ADD
	MUL = leakage.MUL
	DIV = leakage.DIV
)

// SavatProgram builds the A/B alternation microbenchmark of the SAVAT
// methodology (§VI-A).
func SavatProgram(a, b SavatInst, perHalf, periods int) ([]uint32, error) {
	return leakage.SavatProgram(a, b, perHalf, periods)
}

// Savat computes the SAVAT value from a captured or simulated signal of
// the alternation microbenchmark.
func Savat(sig []float64, samplesPerCycle, totalCycles, periods int) (float64, error) {
	return leakage.Savat(sig, samplesPerCycle, totalCycles, periods)
}

// NewExperiments trains a model on a fresh device and returns the harness
// that reproduces the paper's tables and figures.
func NewExperiments(opts ExperimentsOptions) (*Experiments, error) {
	return experiments.NewEnv(opts)
}

// DefaultExperimentsOptions returns the configuration used for the
// results recorded in EXPERIMENTS.md.
func DefaultExperimentsOptions() ExperimentsOptions {
	return experiments.DefaultEnvOptions()
}

// MixedProgram generates a random-but-terminating evaluation program
// blending all instruction clusters (loads, stores, mul/div, branches,
// bounded loops), as used for the §V robustness studies. It errors past
// 2,043 instructions, where the program's stores could reach its code.
func MixedProgram(rng *rand.Rand, instructions int) ([]uint32, error) {
	return core.MixedProgram(rng, instructions)
}

// CombinationGroup generates group g of the §V-A validation benchmark:
// the instruction stream realizing combinations [g·1024, (g+1)·1024) of
// the 7⁵ pipeline occupancy space.
func CombinationGroup(g int, rng *rand.Rand, fullISA bool) ([]uint32, error) {
	return core.CombinationGroup(g, rng, fullISA)
}
