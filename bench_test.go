package emsim

// One benchmark per table and figure of the paper's evaluation. Each runs
// the corresponding experiment harness end to end (measure on the
// synthetic device, simulate with the trained model, score) and reports
// the headline number through b.ReportMetric, so `go test -bench .`
// regenerates every row/series the paper reports. Absolute values differ
// from the paper (synthetic bench, not the authors' FPGA); the shape —
// who wins, what breaks under ablation — is the reproduction target and
// is asserted by the test suites under internal/.

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"emsim/internal/core"
	"emsim/internal/experiments"
	"emsim/internal/leakage"
	"emsim/internal/stats"
)

var (
	benchOnce sync.Once
	benchEnv  *experiments.Env
	benchErr  error
)

func benchEnvironment(b testing.TB) *experiments.Env {
	b.Helper()
	benchOnce.Do(func() {
		opts := experiments.DefaultEnvOptions()
		opts.Train = core.TrainOptions{Runs: 10, InstancesPerCluster: 30, MixedLength: 400}
		opts.Runs = 8
		benchEnv, benchErr = experiments.NewEnv(opts)
	})
	if benchErr != nil {
		b.Fatalf("environment: %v", benchErr)
	}
	return benchEnv
}

// BenchmarkTraining measures the full model-building campaign of §III
// (kernel fit, baseline amplitudes, stepwise activity regression, MISO)
// at several measurement fan-out widths. The /1 rung is the sequential
// baseline; the parallel rungs fit byte-identical models (asserted by
// TestTrainerWorkerCountEquivalence), so the ratio between rungs is pure
// pipeline speedup.
func BenchmarkTraining(b *testing.B) {
	for _, workers := range []int{1, 2, 4, 0} {
		name := fmt.Sprintf("workers=%d", workers)
		if workers == 0 {
			name = "workers=max"
		}
		b.Run(name, func(b *testing.B) {
			dev := NewDevice(DefaultDeviceOptions())
			for i := 0; i < b.N; i++ {
				opts := TrainOptions{Runs: 10, InstancesPerCluster: 30, MixedLength: 400, Workers: workers}
				if _, err := Train(dev, opts); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkFigure1Reconstruction compares the rect/exp/sin-exp kernels.
func BenchmarkFigure1Reconstruction(b *testing.B) {
	env := benchEnvironment(b)
	for i := 0; i < b.N; i++ {
		r, err := env.Figure1()
		if err != nil {
			b.Fatal(err)
		}
		for _, s := range r.Scores {
			b.ReportMetric(s.NCC, "ncc:"+s.Kind.String())
		}
	}
}

// BenchmarkFigure2PerStageSources is the per-stage-vs-single-source study.
func BenchmarkFigure2PerStageSources(b *testing.B) {
	env := benchEnvironment(b)
	for i := 0; i < b.N; i++ {
		r, err := env.Figure2()
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(r.FullRMSE, "rmse:full")
		b.ReportMetric(r.AblatedRMSE, "rmse:single-source")
	}
}

// BenchmarkFigure3ActivityFactor is the LR-vs-averaging activity study.
func BenchmarkFigure3ActivityFactor(b *testing.B) {
	env := benchEnvironment(b)
	for i := 0; i < b.N; i++ {
		r, err := env.Figure3()
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(r.FullRMSE, "rmse:stepwise-LR")
		b.ReportMetric(r.AblatedRMSE, "rmse:average")
	}
}

// BenchmarkFigure4MISO is the two-sources-in-flight superposition study.
func BenchmarkFigure4MISO(b *testing.B) {
	env := benchEnvironment(b)
	for i := 0; i < b.N; i++ {
		r, err := env.Figure4()
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(r.AccuracyCombined, "accuracy")
		b.ReportMetric(r.SuperpositionError, "naive-superposition-rms")
	}
}

// BenchmarkFigure5Stalls is the stall-modeling study.
func BenchmarkFigure5Stalls(b *testing.B) {
	env := benchEnvironment(b)
	for i := 0; i < b.N; i++ {
		r, err := env.Figure5()
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(r.FullRMSE, "rmse:full")
		b.ReportMetric(r.AblatedRMSE, "rmse:no-stall")
	}
}

// BenchmarkFigure6Cache is the cache-hit/miss modeling study.
func BenchmarkFigure6Cache(b *testing.B) {
	env := benchEnvironment(b)
	for i := 0; i < b.N; i++ {
		r, err := env.Figure6()
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(r.FullRMSE, "rmse:full")
		b.ReportMetric(r.AblatedRMSE, "rmse:no-cache")
	}
}

// BenchmarkFigure7Misprediction is the flush-bubble modeling study.
func BenchmarkFigure7Misprediction(b *testing.B) {
	env := benchEnvironment(b)
	for i := 0; i < b.N; i++ {
		r, err := env.Figure7()
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(r.FullRMSE, "rmse:full")
		b.ReportMetric(r.AblatedRMSE, "rmse:no-flush")
	}
}

// BenchmarkTableIClustering derives the 7 instruction clusters from
// measured signatures.
func BenchmarkTableIClustering(b *testing.B) {
	env := benchEnvironment(b)
	for i := 0; i < b.N; i++ {
		r, err := env.TableI()
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(r.PairAgreement, "agreement-with-TableI")
	}
}

// BenchmarkFigure8Accuracy is the headline §V-A validation over the
// combination benchmark (4 of the 17 groups per iteration; the recorded
// full-17 run lives in EXPERIMENTS.md).
func BenchmarkFigure8Accuracy(b *testing.B) {
	env := benchEnvironment(b)
	for i := 0; i < b.N; i++ {
		r, err := env.Figure8(4)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(r.Mean, "accuracy:representatives")
		b.ReportMetric(r.MeanFullISA, "accuracy:full-ISA")
	}
}

// BenchmarkAblations re-scores the benchmark with each modeling feature
// disabled.
func BenchmarkAblations(b *testing.B) {
	env := benchEnvironment(b)
	for i := 0; i < b.N; i++ {
		r, err := env.Ablations(2)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(r.Full, "accuracy:full")
		for _, row := range r.Rows {
			b.ReportMetric(row.Accuracy, "accuracy:"+shortName(row.Name))
		}
	}
}

func shortName(s string) string {
	out := make([]rune, 0, len(s))
	for _, r := range s {
		switch r {
		case ' ':
			out = append(out, '-')
		case '(', ')':
		default:
			out = append(out, r)
		}
	}
	return string(out)
}

// BenchmarkManufacturingVariability is the §V-B board-instance study.
func BenchmarkManufacturingVariability(b *testing.B) {
	env := benchEnvironment(b)
	for i := 0; i < b.N; i++ {
		r, err := env.Manufacturing()
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(r.Spread, "accuracy-spread")
	}
}

// BenchmarkBoardVariability is the §V-C cross-board study.
func BenchmarkBoardVariability(b *testing.B) {
	env := benchEnvironment(b)
	for i := 0; i < b.N; i++ {
		r, err := env.BoardVariability()
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(r.StaleAccuracy, "accuracy:stale")
		b.ReportMetric(r.RetrainedAccuracy, "accuracy:retrained-A-c")
	}
}

// BenchmarkFigure9Distance is the probe-position / β study.
func BenchmarkFigure9Distance(b *testing.B) {
	env := benchEnvironment(b)
	for i := 0; i < b.N; i++ {
		r, err := env.Figure9()
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(r.BetaOne, "accuracy:beta=1")
		b.ReportMetric(r.BetaAdjusted, "accuracy:beta-refit")
	}
}

// BenchmarkFigure10TVLA is the AES-128 leakage assessment, real vs
// simulated.
func BenchmarkFigure10TVLA(b *testing.B) {
	env := benchEnvironment(b)
	for i := 0; i < b.N; i++ {
		r, err := env.Figure10(20)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(r.ProfileCorrelation, "t-profile-correlation")
		b.ReportMetric(r.RealMaxT, "max-t:real")
		b.ReportMetric(r.SimMaxT, "max-t:simulated")
	}
}

// BenchmarkTableIISAVAT computes the 6×6 SAVAT matrix both ways.
func BenchmarkTableIISAVAT(b *testing.B) {
	env := benchEnvironment(b)
	for i := 0; i < b.N; i++ {
		r, err := env.TableII()
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(r.Correlation, "real-vs-sim-correlation")
		b.ReportMetric(r.Real[leakage.LDM][leakage.NOP], "savat:LDM-NOP:real")
		b.ReportMetric(r.Sim[leakage.LDM][leakage.NOP], "savat:LDM-NOP:sim")
	}
}

// BenchmarkFigure11Debug is the defective-multiplier localization study.
func BenchmarkFigure11Debug(b *testing.B) {
	env := benchEnvironment(b)
	for i := 0; i < b.N; i++ {
		r, err := env.Figure11()
		if err != nil {
			b.Fatal(err)
		}
		detected := 0.0
		if r.DefectDetected {
			detected = 1
		}
		b.ReportMetric(detected, "defect-localized")
		b.ReportMetric(r.BuggyMaxDev, "peak-contrast")
	}
}

// BenchmarkPredictorStudy is the §IV predictor comparison.
func BenchmarkPredictorStudy(b *testing.B) {
	env := benchEnvironment(b)
	for i := 0; i < b.N; i++ {
		r, err := env.PredictorStudy()
		if err != nil {
			b.Fatal(err)
		}
		for j, name := range r.Names {
			b.ReportMetric(r.Accuracies[j], "accuracy:"+name)
		}
	}
}

// BenchmarkSimulationThroughput measures raw simulation speed: cycles of
// EM signal generated per second for a trained model, the "performance
// advantage of a cycle-accurate simulation relative to a physics-based
// model" the paper motivates. Each iteration is one Model.SimulateProgram
// call, which builds a fresh Session and records the trace through its
// tee, so it pays per call for the core, the tap table, the trace and
// the signal.
func BenchmarkSimulationThroughput(b *testing.B) {
	env := benchEnvironment(b)
	words, err := CombinationGroup(0, rand.New(rand.NewSource(1)), false)
	if err != nil {
		b.Fatal(err)
	}
	cfg := DefaultCPUConfig()
	cycles := 0
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tr, _, err := env.Model.SimulateProgram(cfg, words)
		if err != nil {
			b.Fatal(err)
		}
		cycles += len(tr)
	}
	b.StopTimer()
	if b.Elapsed() > 0 {
		b.ReportMetric(float64(cycles)/b.Elapsed().Seconds(), "cycles/s")
	}
}

// BenchmarkSessionReuse measures the streaming hot path: one Session
// simulating the same program back to back, buffers recycled through
// SimulateProgramInto. Compare cycles/s (and allocs/op) against
// BenchmarkSimulationThroughput, which builds a Session and records a
// trace per call.
func BenchmarkSessionReuse(b *testing.B) {
	env := benchEnvironment(b)
	words, err := CombinationGroup(0, rand.New(rand.NewSource(1)), false)
	if err != nil {
		b.Fatal(err)
	}
	sess, err := NewSession(env.Model, DefaultCPUConfig())
	if err != nil {
		b.Fatal(err)
	}
	var sig []float64
	cycles := 0
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sig, err = sess.SimulateProgramInto(sig, words)
		if err != nil {
			b.Fatal(err)
		}
		cycles += sess.Cycles()
	}
	b.StopTimer()
	if b.Elapsed() > 0 {
		b.ReportMetric(float64(cycles)/b.Elapsed().Seconds(), "cycles/s")
	}
}

// BenchmarkSimulateBatch fans a campaign of programs across worker
// Sessions, at several worker counts (the sub-benchmark name is the
// worker count; 0 = GOMAXPROCS).
func BenchmarkSimulateBatch(b *testing.B) {
	env := benchEnvironment(b)
	rng := rand.New(rand.NewSource(2))
	var programs [][]uint32
	for i := 0; i < 32; i++ {
		w, err := MixedProgram(rng, 300)
		if err != nil {
			b.Fatal(err)
		}
		programs = append(programs, w)
	}
	sess, err := NewSession(env.Model, DefaultCPUConfig())
	if err != nil {
		b.Fatal(err)
	}
	for _, workers := range []int{1, 2, 4, 0} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			cycles := 0
			for i := 0; i < b.N; i++ {
				res, err := sess.SimulateBatch(programs, workers)
				if err != nil {
					b.Fatal(err)
				}
				for _, sig := range res {
					cycles += len(sig) / env.Model.SamplesPerCycle
				}
			}
			b.StopTimer()
			if b.Elapsed() > 0 {
				b.ReportMetric(float64(cycles)/b.Elapsed().Seconds(), "cycles/s")
			}
		})
	}
}

// BenchmarkEndToEndQuickstart runs the whole user journey once per
// iteration: assemble, simulate, compare against a measurement.
func BenchmarkEndToEndQuickstart(b *testing.B) {
	env := benchEnvironment(b)
	prog := MustAssemble(`
		li   t0, 25
		li   t1, 0
	loop:
		add  t1, t1, t0
		addi t0, t0, -1
		bnez t0, loop
		sw   t1, 1024(zero)
		ebreak
	`)
	for i := 0; i < b.N; i++ {
		cmp, err := env.Model.CompareOnDevice(env.Dev, prog.Words, 5)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(cmp.Accuracy, "accuracy")
	}
}

// BenchmarkForwardingStudy is the §IV forwarding comparison.
func BenchmarkForwardingStudy(b *testing.B) {
	env := benchEnvironment(b)
	for i := 0; i < b.N; i++ {
		r, err := env.ForwardingStudy()
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(r.WithForwarding, "accuracy:forwarding-on")
		b.ReportMetric(r.WithoutForwarding, "accuracy:forwarding-off")
	}
}

// BenchmarkSamplingRateStudy is the §V-A oscilloscope-rate sweep.
func BenchmarkSamplingRateStudy(b *testing.B) {
	env := benchEnvironment(b)
	for i := 0; i < b.N; i++ {
		r, err := env.SamplingRateStudy()
		if err != nil {
			b.Fatal(err)
		}
		for j, spc := range r.SamplesPerCycle {
			b.ReportMetric(r.Accuracies[j], fmt.Sprintf("accuracy:spc=%d", spc))
		}
	}
}

// BenchmarkTrainingBudgetStudy retrains at shrinking measurement budgets
// (§III-B campaign-size sensitivity) and reports held-out accuracy for
// the full and the most starved campaigns.
func BenchmarkTrainingBudgetStudy(b *testing.B) {
	env := benchEnvironment(b)
	for i := 0; i < b.N; i++ {
		r, err := env.TrainingBudgetStudy()
		if err != nil {
			b.Fatal(err)
		}
		full := r.Points[0]
		starved := r.Points[len(r.Points)-1]
		b.ReportMetric(full.Accuracy, "accuracy:full-budget")
		b.ReportMetric(starved.Accuracy, "accuracy:starved-budget")
	}
}

// Attack-sweep benchmark geometry: 64 sample points and 64 key
// candidates, one sweep point every 64 traces.
const (
	benchSweepWidth   = 64
	benchSweepGuesses = 64
	benchSweepStep    = 64
)

// benchSweepData builds the synthetic campaign for BenchmarkAttackSweep:
// n TVLA pairs and n CPA traces with one planted leak each, everything
// else Gaussian noise. Generation happens outside the timed region.
func benchSweepData(n int) (fixed, random, traces, hyp [][]float64) {
	rng := rand.New(rand.NewSource(7))
	leakCol, leakGuess := benchSweepWidth/3, 5
	fixed = make([][]float64, n)
	random = make([][]float64, n)
	traces = make([][]float64, n)
	hyp = make([][]float64, n)
	for i := 0; i < n; i++ {
		f := make([]float64, benchSweepWidth)
		r := make([]float64, benchSweepWidth)
		tr := make([]float64, benchSweepWidth)
		h := make([]float64, benchSweepGuesses)
		for c := range f {
			f[c] = rng.NormFloat64()
			r[c] = rng.NormFloat64()
			tr[c] = rng.NormFloat64()
		}
		f[leakCol] += 0.8
		for g := range h {
			h[g] = float64(rng.Intn(9))
		}
		tr[leakCol] += 0.5 * h[leakGuess]
		fixed[i], random[i], traces[i], hyp[i] = f, r, tr, h
	}
	return fixed, random, traces, hyp
}

// BenchmarkAttackSweep measures the security-sweep analytics (a TVLA
// detection curve plus a CPA key-rank curve with a sweep point every 64
// traces) at a ladder of campaign sizes, comparing the buffered-recompute
// formulation — retain every trace, recompute each sweep point from
// scratch, the shape defend.Evaluate had before streaming — against the
// one-pass accumulators. B/op is the headline memory number: buffered
// grows O(traces×samples) while streaming holds O(guesses×samples)
// state regardless of campaign length.
func BenchmarkAttackSweep(b *testing.B) {
	for _, n := range []int{256, 1024, 4096} {
		fixed, random, traces, hyp := benchSweepData(n)
		b.Run(fmt.Sprintf("buffered/traces=%d", n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				bufF := make([][]float64, 0, n)
				bufR := make([][]float64, 0, n)
				bufT := make([][]float64, 0, n)
				bufH := make([][]float64, 0, n)
				for t := 0; t < n; t++ {
					bufF = append(bufF, append([]float64(nil), fixed[t]...))
					bufR = append(bufR, append([]float64(nil), random[t]...))
					bufT = append(bufT, append([]float64(nil), traces[t]...))
					bufH = append(bufH, append([]float64(nil), hyp[t]...))
					if (t+1)%benchSweepStep != 0 {
						continue
					}
					if _, err := stats.TVLATrace(bufF, bufR); err != nil {
						b.Fatal(err)
					}
					if _, err := leakage.CPA(bufT, bufH); err != nil {
						b.Fatal(err)
					}
				}
			}
			reportTracesPerSec(b, n)
		})
		b.Run(fmt.Sprintf("streaming/traces=%d", n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				tv := leakage.NewTVLAStream()
				cpa := leakage.NewCPAStream(benchSweepGuesses, 0, 0)
				for t := 0; t < n; t++ {
					if err := tv.AddFixed(fixed[t]); err != nil {
						b.Fatal(err)
					}
					if err := tv.AddRandom(random[t]); err != nil {
						b.Fatal(err)
					}
					if err := cpa.Add(traces[t], hyp[t]); err != nil {
						b.Fatal(err)
					}
					if (t+1)%benchSweepStep != 0 {
						continue
					}
					if _, err := tv.MaxAbsT(); err != nil {
						b.Fatal(err)
					}
					if _, err := cpa.Snapshot(); err != nil {
						b.Fatal(err)
					}
				}
			}
			reportTracesPerSec(b, n)
		})
	}
}

func reportTracesPerSec(b *testing.B, n int) {
	b.StopTimer()
	if b.Elapsed() > 0 {
		b.ReportMetric(float64(n)*float64(b.N)/b.Elapsed().Seconds(), "traces/s")
	}
}
