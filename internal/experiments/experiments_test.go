package experiments

import (
	"fmt"
	"math"
	"math/rand"
	"strings"
	"sync"
	"testing"

	"emsim/internal/core"
	"emsim/internal/cpu"
	"emsim/internal/isa"
	"emsim/internal/leakage"
)

// One shared environment per test binary: training costs seconds.
var (
	envOnce sync.Once
	sharedE *Env
	envErr  error
)

func testEnv(t *testing.T) *Env {
	t.Helper()
	envOnce.Do(func() {
		opts := DefaultEnvOptions()
		opts.Train = core.TrainOptions{Runs: 10, InstancesPerCluster: 30, MixedLength: 400}
		opts.Runs = 8
		sharedE, envErr = NewEnv(opts)
	})
	if envErr != nil {
		t.Fatalf("environment: %v", envErr)
	}
	return sharedE
}

func TestCombinationGroupCoversItsCombos(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	words, err := core.CombinationGroup(0, rng, false)
	if err != nil {
		t.Fatal(err)
	}
	c := cpu.MustNew(cpu.DefaultConfig())
	if _, err := c.RunProgram(words); err != nil {
		t.Fatalf("group 0 does not run: %v", err)
	}
	st := c.Stats()
	if st.Retired < 5*core.CombosPerGroup {
		t.Errorf("group 0 retired %d instructions, want >= %d", st.Retired, 5*core.CombosPerGroup)
	}
	if st.CacheMisses == 0 {
		t.Error("combination group should include cache misses (Load cluster)")
	}
	if st.Mispredicts == 0 {
		t.Error("combination group should include mispredictions (Branch cluster)")
	}
	if _, err := core.CombinationGroup(-1, rng, false); err == nil {
		t.Error("negative group accepted")
	}
	if _, err := core.CombinationGroup(core.NumGroups, rng, false); err == nil {
		t.Error("out-of-range group accepted")
	}
}

func TestAllCombinationGroupsHalt(t *testing.T) {
	// Regression test: large groups once overlapped their own scratch
	// region, letting stores clobber code (some groups then never
	// halted). Every group in both variants must run to completion.
	for variant := 0; variant < 2; variant++ {
		rng := rand.New(rand.NewSource(800 + int64(variant)))
		for g := 0; g < core.NumGroups; g++ {
			words, err := core.CombinationGroup(g, rng, variant == 1)
			if err != nil {
				t.Fatalf("group %d variant %d: %v", g, variant, err)
			}
			c := cpu.MustNew(cpu.DefaultConfig())
			if _, err := c.RunProgram(words); err != nil {
				t.Fatalf("group %d variant %d does not halt: %v", g, variant, err)
			}
			if 4*len(words) >= 0x10000 {
				t.Fatalf("group %d image (%d bytes) reaches the scratch region", g, 4*len(words))
			}
		}
	}
}

func TestCombinationConstants(t *testing.T) {
	if core.NumCombinations != 16807 {
		t.Errorf("NumCombinations = %d, want 7^5", core.NumCombinations)
	}
	if core.NumGroups != 17 {
		t.Errorf("NumGroups = %d, want 17 as in the paper", core.NumGroups)
	}
}

// TestExperimentsIndependentOfOrder runs a cheap subset of experiments,
// then other experiments that measure on the shared device, then the
// subset again, and requires every report to print byte for byte as
// before: a capture must not depend on the captures made before it.
func TestExperimentsIndependentOfOrder(t *testing.T) {
	e := testEnv(t)
	subset := func() []string {
		var out []string
		for _, run := range []func() (fmt.Stringer, error){
			func() (fmt.Stringer, error) { return e.Figure4() },
			func() (fmt.Stringer, error) { return e.Figure11() },
			func() (fmt.Stringer, error) { return e.Figure10(4) },
		} {
			r, err := run()
			if err != nil {
				t.Fatal(err)
			}
			out = append(out, r.String())
		}
		return out
	}
	first := subset()
	for _, run := range []func() (fmt.Stringer, error){
		func() (fmt.Stringer, error) { return e.Figure2() },
		func() (fmt.Stringer, error) { return e.Figure5() },
		func() (fmt.Stringer, error) { return e.TableI() },
		func() (fmt.Stringer, error) { return e.Figure10(3) },
	} {
		if _, err := run(); err != nil {
			t.Fatal(err)
		}
	}
	for i, again := range subset() {
		if again != first[i] {
			t.Errorf("report changed after other experiments ran:\nfirst:\n%s\nagain:\n%s", first[i], again)
		}
	}
}

func TestFigure1SinExpWins(t *testing.T) {
	if testing.Short() {
		t.Skip("skipping in -short mode: the kernel-shape sweep refits the full grid per candidate")
	}
	e := testEnv(t)
	r, err := e.Figure1()
	if err != nil {
		t.Fatal(err)
	}
	if r.Best != 2 { // signal.KernelSinExp
		t.Errorf("best kernel = %v, want sin-exp (paper Figure 1)", r.Best)
	}
	var rect, sinexp float64
	for _, s := range r.Scores {
		switch s.Kind.String() {
		case "rect":
			rect = s.NCC
		case "sin-exp":
			sinexp = s.NCC
		}
	}
	if sinexp < 0.95 {
		t.Errorf("sin-exp reconstruction NCC = %.3f, want >= 0.95", sinexp)
	}
	if sinexp <= rect {
		t.Errorf("sin-exp (%.3f) must beat rect (%.3f)", sinexp, rect)
	}
	if !strings.Contains(r.String(), "sin-exp") {
		t.Error("report missing kernel name")
	}
}

func TestFigure2PerStageSourcesMatter(t *testing.T) {
	e := testEnv(t)
	r, err := e.Figure2()
	if err != nil {
		t.Fatal(err)
	}
	if r.AblatedRMSE < 1.5*r.FullRMSE {
		t.Errorf("single-source RMSE %.3f should be >= 1.5x full %.3f (Figure 2)", r.AblatedRMSE, r.FullRMSE)
	}
	if r.AblatedAmpCorr >= r.FullAmpCorr {
		t.Errorf("single-source amplitude corr %.3f should drop below %.3f", r.AblatedAmpCorr, r.FullAmpCorr)
	}
}

func TestFigure3ActivityRegressionMatters(t *testing.T) {
	e := testEnv(t)
	r, err := e.Figure3()
	if err != nil {
		t.Fatal(err)
	}
	if r.AblatedRMSE < 1.2*r.FullRMSE {
		t.Errorf("Equ.7 averaging RMSE %.3f should be >= 1.2x LR %.3f (Figure 3)", r.AblatedRMSE, r.FullRMSE)
	}
}

func TestFigure4Superposition(t *testing.T) {
	e := testEnv(t)
	r, err := e.Figure4()
	if err != nil {
		t.Fatal(err)
	}
	if r.AccuracyCombined < 0.9 {
		t.Errorf("combined-sequence accuracy %.3f", r.AccuracyCombined)
	}
	if r.SuperpositionError <= 0 {
		t.Error("naive superposition should not be exact (M must be fitted)")
	}
}

func TestFigure5StallModelingMatters(t *testing.T) {
	e := testEnv(t)
	r, err := e.Figure5()
	if err != nil {
		t.Fatal(err)
	}
	if r.AblatedRMSE < 2*r.FullRMSE {
		t.Errorf("no-stall RMSE %.3f should be >= 2x full %.3f (Figure 5)", r.AblatedRMSE, r.FullRMSE)
	}
}

func TestFigure6CacheModelingMatters(t *testing.T) {
	e := testEnv(t)
	r, err := e.Figure6()
	if err != nil {
		t.Fatal(err)
	}
	if r.AblatedRMSE < 2*r.FullRMSE {
		t.Errorf("no-cache RMSE %.3f should be >= 2x full %.3f (Figure 6)", r.AblatedRMSE, r.FullRMSE)
	}
	if r.AblatedAccuracy >= r.FullAccuracy {
		t.Errorf("no-cache accuracy %.3f should drop below %.3f", r.AblatedAccuracy, r.FullAccuracy)
	}
}

func TestFigure7FlushModelingMatters(t *testing.T) {
	e := testEnv(t)
	r, err := e.Figure7()
	if err != nil {
		t.Fatal(err)
	}
	if r.AblatedRMSE < 1.3*r.FullRMSE {
		t.Errorf("no-flush RMSE %.3f should be >= 1.3x full %.3f (Figure 7)", r.AblatedRMSE, r.FullRMSE)
	}
}

func TestTableIRecoversSevenClusters(t *testing.T) {
	e := testEnv(t)
	r, err := e.TableI()
	if err != nil {
		t.Fatal(err)
	}
	if r.NumClusters != isa.NumClusters {
		t.Errorf("cut size %d", r.NumClusters)
	}
	if r.PairAgreement < 0.95 {
		t.Errorf("cluster agreement %.3f, want >= 0.95 (recorded run: 1.00)", r.PairAgreement)
	}
	if len(r.Items) < 30 {
		t.Errorf("only %d instructions clustered", len(r.Items))
	}
	if !strings.Contains(r.String(), "cluster") {
		t.Error("report looks empty")
	}
}

func TestFigure8HeadlineAccuracy(t *testing.T) {
	e := testEnv(t)
	r, err := e.Figure8(2)
	if err != nil {
		t.Fatal(err)
	}
	if r.Mean < 0.90 {
		t.Errorf("representative-group accuracy %.3f, want >= 0.90 (paper: 0.941)", r.Mean)
	}
	if r.MeanFullISA < 0.90 {
		t.Errorf("full-ISA accuracy %.3f, want >= 0.90", r.MeanFullISA)
	}
	if r.TotalCycles < 10000 {
		t.Errorf("only %d cycles scored", r.TotalCycles)
	}
}

func TestAblationsDegrade(t *testing.T) {
	e := testEnv(t)
	r, err := e.Ablations(1)
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]bool{} // ablations that must hurt at least one metric
	for _, row := range r.Rows {
		want[row.Name] = row.Accuracy < r.Full || row.RMSE > 1.05*r.FullRMSE
	}
	for name, ok := range want {
		if !ok {
			t.Errorf("ablation %q shows no degradation on either metric", name)
		}
	}
}

func TestManufacturingVariabilityNegligible(t *testing.T) {
	e := testEnv(t)
	r, err := e.Manufacturing()
	if err != nil {
		t.Fatal(err)
	}
	if r.Spread > 0.02 {
		t.Errorf("manufacturing spread %.4f, want <= 0.02 (paper: no significant impact)", r.Spread)
	}
	for i, acc := range r.Accuracies {
		if acc < 0.85 {
			t.Errorf("%s accuracy %.3f", r.Boards[i], acc)
		}
	}
}

func TestBoardVariabilityRetrainRecovers(t *testing.T) {
	if testing.Short() {
		t.Skip("skipping in -short mode: each simulated board retrains from scratch")
	}
	e := testEnv(t)
	r, err := e.BoardVariability()
	if err != nil {
		t.Fatal(err)
	}
	if r.RetrainedAccuracy <= r.StaleAccuracy {
		t.Errorf("retraining (%.3f) must beat the stale model (%.3f)", r.RetrainedAccuracy, r.StaleAccuracy)
	}
	// M transfers: the grafted model must match the fully retrained one.
	if math.Abs(r.RetrainedAccuracy-r.SelfAccuracy) > 0.02 {
		t.Errorf("grafted-M accuracy %.3f far from full retrain %.3f (M should transfer, §V-C)",
			r.RetrainedAccuracy, r.SelfAccuracy)
	}
	if r.AmpRelativeDistance < 0.1 {
		t.Errorf("A-table change %.2f suspiciously small for a different board", r.AmpRelativeDistance)
	}
}

func TestFigure9BetaAdjustment(t *testing.T) {
	e := testEnv(t)
	r, err := e.Figure9()
	if err != nil {
		t.Fatal(err)
	}
	if r.BetaAdjusted <= r.BetaOne {
		t.Errorf("β refit (%.3f) must beat β=1 (%.3f) at the moved probe (Figure 9)", r.BetaAdjusted, r.BetaOne)
	}
	if r.BetaAdjusted < 0.9 {
		t.Errorf("β-adjusted accuracy %.3f, want >= 0.9", r.BetaAdjusted)
	}
	// The fitted β must deviate from 1 (the probe moved).
	dev := 0.0
	for _, b := range r.FittedBeta {
		dev += math.Abs(b - 1)
	}
	if dev < 0.5 {
		t.Errorf("fitted β %.2v barely differs from 1", r.FittedBeta)
	}
}

func TestFigure10TVLAAgreement(t *testing.T) {
	e := testEnv(t)
	r, err := e.Figure10(20)
	if err != nil {
		t.Fatal(err)
	}
	if r.RealLeakPoints == 0 || r.SimLeakPoints == 0 {
		t.Error("AES must leak under TVLA in both real and simulated assessments")
	}
	if r.ProfileCorrelation < 0.9 {
		t.Errorf("|t| profile correlation %.3f, want >= 0.9 (paper: same pattern)", r.ProfileCorrelation)
	}
}

func TestTableIISAVATAgreement(t *testing.T) {
	e := testEnv(t)
	r, err := e.TableII()
	if err != nil {
		t.Fatal(err)
	}
	if r.Correlation < 0.95 {
		t.Errorf("SAVAT real-vs-simulated correlation %.3f, want >= 0.95", r.Correlation)
	}
	// Structural checks mirroring Table II: diagonal ~0, LDM/NOP big.
	for i := 0; i < leakage.NumSavatInsts; i++ {
		if r.Real[i][i] > 0.05 {
			t.Errorf("real diagonal [%d][%d] = %.3f, want ~0", i, i, r.Real[i][i])
		}
	}
	if r.Real[leakage.LDM][leakage.NOP] < 3*r.Real[leakage.ADD][leakage.NOP] {
		t.Errorf("LDM/NOP (%.3f) should dominate ADD/NOP (%.3f)",
			r.Real[leakage.LDM][leakage.NOP], r.Real[leakage.ADD][leakage.NOP])
	}
}

func TestFigure11DetectsDefect(t *testing.T) {
	e := testEnv(t)
	r, err := e.Figure11()
	if err != nil {
		t.Fatal(err)
	}
	if !r.DefectDetected {
		t.Errorf("defective multiplier not localized: peak %.3f at cycle %d (floor %.3f, MUL cycles %v)",
			r.BuggyMaxDev, r.WorstCycle, r.HealthyMaxDev, r.MulExecuteCycles)
	}
	if r.HealthyAccuracy < 0.95 {
		t.Errorf("healthy chip accuracy %.3f — the reference itself is bad", r.HealthyAccuracy)
	}
}

func TestPredictorStudyNoSignificantDifference(t *testing.T) {
	e := testEnv(t)
	r, err := e.PredictorStudy()
	if err != nil {
		t.Fatal(err)
	}
	min, max := 2.0, -2.0
	for _, a := range r.Accuracies {
		if a < min {
			min = a
		}
		if a > max {
			max = a
		}
	}
	if max-min > 0.03 {
		t.Errorf("predictor accuracy spread %.3f, want <= 0.03 (paper: no significant difference)", max-min)
	}
}

func TestReportsRender(t *testing.T) {
	// Smoke-check every String method via a tiny fabricated result set.
	var sb strings.Builder
	sb.WriteString((&Figure4Result{AccuracyCombined: 0.99, SuperpositionError: 0.02}).String())
	sb.WriteString((&AblationCompare{Name: "X", Sequence: "s", AblationName: "abl"}).String())
	sb.WriteString((&ManufacturingResult{Boards: []string{"a"}, Accuracies: []float64{0.9}}).String())
	sb.WriteString((&Figure10Result{}).String())
	sb.WriteString((&Figure11Result{DefectDetected: true}).String())
	if sb.Len() == 0 {
		t.Fatal("no report output")
	}
}

func BenchmarkEnvScoreGroup(b *testing.B) {
	opts := DefaultEnvOptions()
	opts.Train = core.TrainOptions{Runs: 5, InstancesPerCluster: 10, MixedLength: 200}
	opts.Runs = 3
	e, err := NewEnv(opts)
	if err != nil {
		b.Fatal(err)
	}
	words, err := core.CombinationGroup(0, rand.New(rand.NewSource(1)), false)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := e.score(e.Model, nil, words); err != nil {
			b.Fatal(err)
		}
	}
}

func TestForwardingStudyNoSignificantDifference(t *testing.T) {
	e := testEnv(t)
	r, err := e.ForwardingStudy()
	if err != nil {
		t.Fatal(err)
	}
	if diff := math.Abs(r.WithForwarding - r.WithoutForwarding); diff > 0.03 {
		t.Errorf("forwarding accuracy difference %.3f, want <= 0.03 (paper: no significant difference)", diff)
	}
	if r.WithForwarding < 0.85 || r.WithoutForwarding < 0.85 {
		t.Errorf("accuracies too low: %.3f / %.3f", r.WithForwarding, r.WithoutForwarding)
	}
}

func TestSamplingRateStudyShape(t *testing.T) {
	if testing.Short() {
		t.Skip("skipping in -short mode: the study retrains at every sampling rate")
	}
	e := testEnv(t)
	r, err := e.SamplingRateStudy()
	if err != nil {
		t.Fatal(err)
	}
	// Above the ringing's Nyquist limit (>8 samples/cycle for the 4-per-
	// cycle ringing) accuracy must be high and flat; at or below it the
	// waveform aliases away.
	byRate := map[int]float64{}
	for i, spc := range r.SamplesPerCycle {
		byRate[spc] = r.Accuracies[i]
	}
	if byRate[12] < 0.9 || byRate[16] < 0.9 || byRate[32] < 0.9 {
		t.Errorf("above-Nyquist accuracies too low: %v", byRate)
	}
	if math.Abs(byRate[12]-byRate[32]) > 0.05 {
		t.Errorf("accuracy not flat above Nyquist: 12->%.3f vs 32->%.3f", byRate[12], byRate[32])
	}
	if byRate[4] > 0.5 || byRate[8] > 0.5 {
		t.Errorf("sub-Nyquist rates should fail: 4->%.3f 8->%.3f", byRate[4], byRate[8])
	}
}

func TestTrainingBudgetStudyDegradesGracefully(t *testing.T) {
	if testing.Short() {
		t.Skip("skipping in -short mode: the study retrains at every budget point")
	}
	e := testEnv(t)
	r, err := e.TrainingBudgetStudy()
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Points) != 4 {
		t.Fatalf("got %d budget rungs, want 4", len(r.Points))
	}
	full, starved := r.Points[0], r.Points[len(r.Points)-1]
	if full.Accuracy < 0.88 {
		t.Errorf("full-budget accuracy %.3f, want >= 0.88", full.Accuracy)
	}
	for _, p := range r.Points {
		if p.Accuracy < 0.60 {
			t.Errorf("budget %d runs/%d probes collapsed to %.3f", p.Runs, p.InstancesPerCluster, p.Accuracy)
		}
		if p.Accuracy > full.Accuracy+0.03 {
			t.Errorf("smaller budget (%d/%d: %.3f) beat the full budget (%.3f) by more than noise",
				p.Runs, p.InstancesPerCluster, p.Accuracy, full.Accuracy)
		}
	}
	if starved.Accuracy > full.Accuracy {
		t.Logf("note: starved budget %.3f >= full %.3f (within noise)", starved.Accuracy, full.Accuracy)
	}
	if r.String() == "" {
		t.Error("empty report")
	}
}

func TestDefenseStudyReportsAllDefenses(t *testing.T) {
	if testing.Short() {
		t.Skip("defense study simulates thousands of AES traces")
	}
	e := testEnv(t)
	r, err := e.DefenseStudy(8, 24)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Reports) != 3 {
		t.Fatalf("got %d reports, want 3", len(r.Reports))
	}
	for _, rep := range r.Reports {
		if rep.Baseline.MaxAbsT <= 0 || rep.Defended.MaxAbsT <= 0 {
			t.Errorf("%s: missing TVLA statistics: %+v", rep.Defense, rep)
		}
		if rep.Baseline.MeanCycles <= 0 || rep.Defended.MeanCycles <= 0 {
			t.Errorf("%s: missing cycle counts", rep.Defense)
		}
	}
	if s := r.String(); !strings.Contains(s, "shuffle") || !strings.Contains(s, "jitter") {
		t.Errorf("summary misses a defense:\n%s", s)
	}
}
