package stats

import (
	"context"
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestDescriptiveStats(t *testing.T) {
	xs := []float64{2, 4, 4, 4, 5, 5, 7, 9}
	if got := Mean(xs); got != 5 {
		t.Errorf("Mean = %v", got)
	}
	if got := Variance(xs); math.Abs(got-32.0/7) > 1e-12 {
		t.Errorf("Variance = %v, want %v", got, 32.0/7)
	}
	min, max := MinMax(xs)
	if min != 2 || max != 9 {
		t.Errorf("MinMax = %v, %v", min, max)
	}
	if Mean(nil) != 0 || Variance(nil) != 0 {
		t.Error("empty-input conventions broken")
	}
}

func TestPearson(t *testing.T) {
	a := []float64{1, 2, 3, 4, 5}
	b := []float64{2, 4, 6, 8, 10}
	rho, err := Pearson(a, b)
	if err != nil || math.Abs(rho-1) > 1e-12 {
		t.Errorf("perfect correlation = %v (%v)", rho, err)
	}
	c := []float64{10, 8, 6, 4, 2}
	rho, _ = Pearson(a, c)
	if math.Abs(rho+1) > 1e-12 {
		t.Errorf("anticorrelation = %v", rho)
	}
	if _, err := Pearson(a, []float64{1, 1, 1, 1, 1}); err == nil {
		t.Error("constant series accepted")
	}
	if _, err := Pearson(a, b[:3]); err == nil {
		t.Error("length mismatch accepted")
	}
}

func TestLinearRegressionRecovery(t *testing.T) {
	// y = 3 + 2x1 - x2, exactly.
	r := rand.New(rand.NewSource(1))
	var x [][]float64
	var y []float64
	for i := 0; i < 50; i++ {
		x1, x2 := r.NormFloat64(), r.NormFloat64()
		x = append(x, []float64{x1, x2})
		y = append(y, 3+2*x1-x2)
	}
	res, err := fitRows(x, y)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(res.Intercept-3) > 1e-9 ||
		math.Abs(res.Coef[0]-2) > 1e-9 ||
		math.Abs(res.Coef[1]+1) > 1e-9 {
		t.Errorf("fit = %v + %v", res.Intercept, res.Coef)
	}
	if res.R2 < 0.999999 {
		t.Errorf("R2 = %v on exact data", res.R2)
	}
	if got := predict(res, []float64{1, 1}); math.Abs(got-4) > 1e-9 {
		t.Errorf("prediction = %v, want 4", got)
	}
}

func TestLinearRegressionNoisy(t *testing.T) {
	r := rand.New(rand.NewSource(2))
	var x [][]float64
	var y []float64
	for i := 0; i < 500; i++ {
		x1 := r.NormFloat64()
		x = append(x, []float64{x1})
		y = append(y, 5+0.5*x1+0.05*r.NormFloat64())
	}
	res, err := fitRows(x, y)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(res.Intercept-5) > 0.02 || math.Abs(res.Coef[0]-0.5) > 0.02 {
		t.Errorf("noisy fit = %v + %v", res.Intercept, res.Coef)
	}
	if res.R2 < 0.9 {
		t.Errorf("R2 = %v", res.R2)
	}
}

func TestLinearRegressionErrors(t *testing.T) {
	if _, err := LinearRegression(0, nil, nil); err == nil {
		t.Error("empty input accepted")
	}
	// A predictor that repeats the intercept column is rank-deficient.
	ones := func(_ int, dst []float64) {
		for i := range dst {
			dst[i] = 1
		}
	}
	if _, err := LinearRegression(1, ones, []float64{1, 2, 3}); err == nil {
		t.Error("rank-deficient design accepted")
	}
}

// rowColumn reads a design given as rows one column at a time, the form
// LinearRegression and StepwiseRegression take.
func rowColumn(x [][]float64) func(c int, dst []float64) {
	return func(c int, dst []float64) {
		for i, row := range x {
			dst[i] = row[c]
		}
	}
}

// fitRows is LinearRegression over a design given as rows.
func fitRows(x [][]float64, y []float64) (*RegressionResult, error) {
	return LinearRegression(len(x[0]), rowColumn(x), y)
}

// stepwiseRows is StepwiseRegression over a 0/1 design given as rows.
func stepwiseRows(x [][]float64, y []float64, opts StepwiseOptions) (*StepwiseResult, error) {
	col := rowColumn(x)
	cols := make([][]float64, len(x[0]))
	for c := range cols {
		cols[c] = make([]float64, len(x))
		col(c, cols[c])
	}
	return StepwiseRegression(context.Background(), bitColumns(cols), y, opts)
}

// bitRow draws p independent fair 0/1 features.
func bitRow(r *rand.Rand, p int) []float64 {
	row := make([]float64, p)
	for j := range row {
		row[j] = float64(r.Intn(2))
	}
	return row
}

// predict evaluates a fitted model on one feature vector.
func predict(r *RegressionResult, x []float64) float64 {
	s := r.Intercept
	for j, c := range r.Coef {
		s += float64(c * x[j])
	}
	return s
}

func TestStepwiseSelectsTrueSupport(t *testing.T) {
	// 20 candidate bits; only 3 matter. Stepwise must find exactly
	// those and drop the rest (the paper's >65% reduction of T).
	r := rand.New(rand.NewSource(3))
	n, p := 400, 20
	true1, true2, true3 := 4, 11, 17
	var x [][]float64
	var y []float64
	for i := 0; i < n; i++ {
		row := bitRow(r, p)
		x = append(x, row)
		y = append(y, 1+3*row[true1]-2*row[true2]+0.8*row[true3]+0.01*r.NormFloat64())
	}
	res, err := stepwiseRows(x, y, StepwiseOptions{})
	if err != nil {
		t.Fatal(err)
	}
	want := map[int]bool{true1: true, true2: true, true3: true}
	got := map[int]bool{}
	for _, c := range res.Selected {
		got[c] = true
	}
	for c := range want {
		if !got[c] {
			t.Errorf("true predictor %d not selected (got %v)", c, res.Selected)
		}
	}
	if len(res.Selected) > 6 {
		t.Errorf("selected %d predictors, want close to 3", len(res.Selected))
	}
	if res.Dropped < p-6 {
		t.Errorf("dropped only %d of %d candidates", res.Dropped, p)
	}
	// Prediction quality on the full feature vector.
	row := bitRow(r, p)
	want1 := 1 + 3*row[true1] - 2*row[true2] + 0.8*row[true3]
	if gotv := predictSelected(res, row); math.Abs(gotv-want1) > 0.1 {
		t.Errorf("prediction = %v, want %v", gotv, want1)
	}
}

// predictSelected evaluates a stepwise fit on a full-width feature
// vector: the fit's coefficients are ordered like its Selected columns.
func predictSelected(res *StepwiseResult, row []float64) float64 {
	sub := make([]float64, len(res.Selected))
	for k, c := range res.Selected {
		sub[k] = row[c]
	}
	return predict(res.Model, sub)
}

func TestStepwiseNoSignal(t *testing.T) {
	// Pure noise: nothing should pass the F test (allow a rare straggler).
	r := rand.New(rand.NewSource(4))
	var x [][]float64
	var y []float64
	for i := 0; i < 200; i++ {
		x = append(x, bitRow(r, 10))
		y = append(y, r.NormFloat64())
	}
	res, err := stepwiseRows(x, y, StepwiseOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Selected) > 2 {
		t.Errorf("selected %d predictors from pure noise", len(res.Selected))
	}
}

func TestStepwiseCollinearColumns(t *testing.T) {
	// Two identical informative columns: only one may enter.
	r := rand.New(rand.NewSource(5))
	var x [][]float64
	var y []float64
	for i := 0; i < 100; i++ {
		v := float64(r.Intn(2))
		noise := float64(r.Intn(2))
		x = append(x, []float64{v, v, noise})
		y = append(y, 2*v)
	}
	res, err := stepwiseRows(x, y, StepwiseOptions{})
	if err != nil {
		t.Fatal(err)
	}
	count := 0
	for _, c := range res.Selected {
		if c == 0 || c == 1 {
			count++
		}
	}
	if count != 1 {
		t.Errorf("selected %d of the duplicate columns, want exactly 1 (%v)", count, res.Selected)
	}
}

func TestStepwiseMaxPredictors(t *testing.T) {
	r := rand.New(rand.NewSource(6))
	var x [][]float64
	var y []float64
	for i := 0; i < 100; i++ {
		row := bitRow(r, 3)
		x = append(x, row)
		y = append(y, row[0]+row[1]+row[2])
	}
	res, err := stepwiseRows(x, y, StepwiseOptions{MaxPredictors: 2})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Selected) > 2 {
		t.Errorf("MaxPredictors not honored: %v", res.Selected)
	}
}

func TestWelchTKnownValue(t *testing.T) {
	// Classic example: clearly different means.
	a := []float64{27.5, 21.0, 19.0, 23.6, 17.0, 17.9, 16.9, 20.1, 21.9, 22.6, 23.1, 19.6, 19.0, 21.7, 21.4}
	b := []float64{27.1, 22.0, 20.8, 23.4, 23.4, 23.5, 25.8, 22.0, 24.8, 20.2, 21.9, 22.1, 22.9, 30.5, 24.3}
	tstat, df, err := WelchT(a, b)
	if err != nil {
		t.Fatal(err)
	}
	// Reference values computed independently with the Welch formulas.
	if math.Abs(tstat+2.8472) > 0.001 {
		t.Errorf("t = %v, want about -2.8472", tstat)
	}
	if math.Abs(df-27.885) > 0.01 {
		t.Errorf("df = %v, want about 27.885", df)
	}
}

func TestWelchTIdenticalGroups(t *testing.T) {
	a := []float64{1, 2, 3, 4}
	tstat, _, err := WelchT(a, a)
	if err != nil || tstat != 0 {
		t.Errorf("t = %v (%v), want 0", tstat, err)
	}
	if _, _, err := WelchT([]float64{1}, a); err == nil {
		t.Error("tiny group accepted")
	}
	// Zero variance, different means: infinite t.
	tstat, _, err = WelchT([]float64{5, 5, 5}, []float64{1, 1, 1})
	if err != nil || !math.IsInf(tstat, 1) {
		t.Errorf("degenerate t = %v (%v)", tstat, err)
	}
}

func TestWelchTConstantGroupsRoundingNoise(t *testing.T) {
	// Regression: two groups of identical 0.1 values, differing only in
	// length, have means one ulp apart and a variance of a few ulp². The
	// old exact se == 0 guard missed that and reported t ≈ 1.4 from pure
	// rounding noise; the answer is 0.
	a := []float64{0.1, 0.1, 0.1}
	b := []float64{0.1, 0.1, 0.1, 0.1}
	tstat, df, err := WelchT(a, b)
	if err != nil {
		t.Fatal(err)
	}
	if tstat != 0 {
		t.Errorf("t = %v for numerically-constant equal groups, want 0", tstat)
	}
	if df != 5 {
		t.Errorf("df = %v, want pooled 5", df)
	}
	// The same guard must still call genuinely different constants apart.
	tstat, _, err = WelchT([]float64{0.1, 0.1, 0.1}, []float64{0.2, 0.2, 0.2, 0.2})
	if err != nil || !math.IsInf(tstat, -1) {
		t.Errorf("t = %v (%v) for distinct constant groups, want -Inf", tstat, err)
	}
}

func TestApproxHelpers(t *testing.T) {
	if !ApproxEqual(1.0, 1.0+1e-12, DefaultRelTol) {
		t.Error("values one part in 1e12 apart should compare equal at 1e-9")
	}
	if ApproxEqual(1.0, 1.0001, DefaultRelTol) {
		t.Error("values one part in 1e4 apart should not compare equal at 1e-9")
	}
	inf := math.Inf(1)
	if !ApproxEqual(inf, inf, DefaultRelTol) {
		t.Error("equal infinities should compare equal")
	}
	if ApproxEqual(inf, -inf, DefaultRelTol) {
		t.Error("opposite infinities should not compare equal")
	}
}

func TestTVLATraceDetectsLeak(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	width := 50
	leakAt := 17
	var fixed, random [][]float64
	for i := 0; i < 200; i++ {
		f := make([]float64, width)
		g := make([]float64, width)
		for s := 0; s < width; s++ {
			f[s] = r.NormFloat64()
			g[s] = r.NormFloat64()
		}
		f[leakAt] += 2.0 // the "fixed" group leaks here
		fixed = append(fixed, f)
		random = append(random, g)
	}
	tt, err := TVLATrace(fixed, random)
	if err != nil {
		t.Fatal(err)
	}
	leaks := TVLALeakyPoints(tt)
	found := false
	for _, i := range leaks {
		if i == leakAt {
			found = true
		}
	}
	if !found {
		t.Errorf("leak at %d not detected; leaks = %v", leakAt, leaks)
	}
	if len(leaks) > 5 {
		t.Errorf("too many false positives: %v", leaks)
	}
}

func TestTVLATraceErrors(t *testing.T) {
	if _, err := TVLATrace(nil, nil); err == nil {
		t.Error("empty groups accepted")
	}
	f := [][]float64{{1, 2}, {3, 4}}
	bad := [][]float64{{1, 2}, {3}}
	if _, err := TVLATrace(f, bad); err == nil {
		t.Error("ragged traces accepted")
	}
}

func TestHierarchicalClusterTwoBlobs(t *testing.T) {
	// Items 0-2 are mutually close, 3-5 are mutually close, blobs far.
	n := 6
	dist := make([][]float64, n)
	for i := range dist {
		dist[i] = make([]float64, n)
	}
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if i == j {
				continue
			}
			same := (i < 3) == (j < 3)
			if same {
				dist[i][j] = 0.1
			} else {
				dist[i][j] = 1.0
			}
		}
	}
	for _, link := range []Linkage{AverageLinkage, SingleLinkage, CompleteLinkage} {
		dg, err := HierarchicalCluster(dist, link)
		if err != nil {
			t.Fatal(err)
		}
		labels, err := dg.Cut(2)
		if err != nil {
			t.Fatal(err)
		}
		if labels[0] != labels[1] || labels[1] != labels[2] {
			t.Errorf("linkage %v: first blob split: %v", link, labels)
		}
		if labels[3] != labels[4] || labels[4] != labels[5] {
			t.Errorf("linkage %v: second blob split: %v", link, labels)
		}
		if labels[0] == labels[3] {
			t.Errorf("linkage %v: blobs merged: %v", link, labels)
		}
	}
}

func TestDendrogramCutBounds(t *testing.T) {
	dist := [][]float64{{0, 1}, {1, 0}}
	dg, err := HierarchicalCluster(dist, AverageLinkage)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := dg.Cut(0); err == nil {
		t.Error("Cut(0) accepted")
	}
	if _, err := dg.Cut(3); err == nil {
		t.Error("Cut(3) on 2 items accepted")
	}
	l1, _ := dg.Cut(1)
	if l1[0] != 0 || l1[1] != 0 {
		t.Errorf("Cut(1) = %v", l1)
	}
	l2, _ := dg.Cut(2)
	if l2[0] == l2[1] {
		t.Errorf("Cut(2) = %v", l2)
	}
	if len(dg.merges) != 1 || dg.merges[0].dist != 1 {
		t.Errorf("merges = %+v, want one at distance 1", dg.merges)
	}
}

func TestClusterPermutationInvariance(t *testing.T) {
	// Property: permuting items permutes labels consistently.
	r := rand.New(rand.NewSource(8))
	f := func() bool {
		n := 8
		// Two well-separated blobs of random sizes.
		blob := make([]int, n)
		for i := range blob {
			blob[i] = r.Intn(2)
		}
		blob[0], blob[1] = 0, 1 // ensure both blobs exist
		dist := make([][]float64, n)
		for i := range dist {
			dist[i] = make([]float64, n)
		}
		for i := 0; i < n; i++ {
			for j := i + 1; j < n; j++ {
				d := 1.0
				if blob[i] == blob[j] {
					d = 0.05 + 0.01*r.Float64()
				}
				dist[i][j], dist[j][i] = d, d
			}
		}
		dg, err := HierarchicalCluster(dist, AverageLinkage)
		if err != nil {
			return false
		}
		labels, err := dg.Cut(2)
		if err != nil {
			return false
		}
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				if (blob[i] == blob[j]) != (labels[i] == labels[j]) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

func TestDistanceMatrixFromSeries(t *testing.T) {
	series := [][]float64{
		{1, 2, 3, 4},
		{2, 4, 6, 8}, // rho=1 with first -> distance 0
		{4, 3, 2, 1}, // rho=-1 -> distance 2
		{5, 5, 5, 5}, // constant
		{5, 5, 5, 5}, // identical constant
	}
	d, err := DistanceMatrixFromSeries(series)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(d[0][1]) > 1e-9 {
		t.Errorf("d[0][1] = %v, want 0", d[0][1])
	}
	if math.Abs(d[0][2]-2) > 1e-9 {
		t.Errorf("d[0][2] = %v, want 2", d[0][2])
	}
	if d[0][3] != 2 {
		t.Errorf("constant-vs-varying distance = %v, want 2", d[0][3])
	}
	if d[3][4] != 0 {
		t.Errorf("identical constants distance = %v, want 0", d[3][4])
	}
	if d[1][0] != d[0][1] {
		t.Error("matrix not symmetric")
	}
	if _, err := DistanceMatrixFromSeries(nil); err == nil {
		t.Error("empty series accepted")
	}
}

func TestHierarchicalClusterErrors(t *testing.T) {
	if _, err := HierarchicalCluster(nil, AverageLinkage); err == nil {
		t.Error("empty matrix accepted")
	}
	if _, err := HierarchicalCluster([][]float64{{0, 1}}, AverageLinkage); err == nil {
		t.Error("ragged matrix accepted")
	}
}

// BenchmarkStepwiseTrainingShape runs the selection at the activity
// fit's real size: 3,957 rows of 384 0/1 transition-bit columns, 56 of
// them never set, capped at 80 predictors, against a target over 120 of
// the bits that keeps the selection going to the cap.
func BenchmarkStepwiseTrainingShape(b *testing.B) {
	const n, p, unset, steps = 3957, 384, 56, 80
	r := rand.New(rand.NewSource(12))
	x := make([][]float64, p) // by columns
	for k := range x {
		x[k] = make([]float64, n)
	}
	y := make([]float64, n)
	for c, k := range r.Perm(p)[unset:] {
		density := 0.02 + 0.4*r.Float64()
		w := 0.0
		if c < 120 {
			w = 0.3 + r.Float64()
		}
		for i := range y {
			if r.Float64() < density {
				x[k][i] = 1
				y[i] += w
			}
		}
	}
	cols := bitColumns(x)
	for i := range y {
		y[i] += r.NormFloat64()
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := StepwiseRegression(context.Background(), cols, y, StepwiseOptions{MaxPredictors: steps})
		if err != nil {
			b.Fatal(err)
		}
		if len(res.Selected) < 60 {
			b.Fatalf("selection stopped after %d steps", len(res.Selected))
		}
	}
}

func BenchmarkWelchT(b *testing.B) {
	r := rand.New(rand.NewSource(10))
	a := make([]float64, 1000)
	c := make([]float64, 1000)
	for i := range a {
		a[i] = r.NormFloat64()
		c[i] = r.NormFloat64() + 0.1
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := WelchT(a, c); err != nil {
			b.Fatal(err)
		}
	}
}

// TestStepwiseMatchesFullOLSWhenUnconstrained: with a permissive F
// threshold and no cap, stepwise over a well-conditioned full-signal
// 0/1 problem must converge to (essentially) the full OLS fit.
func TestStepwiseMatchesFullOLSWhenUnconstrained(t *testing.T) {
	r := rand.New(rand.NewSource(41))
	n, p := 300, 6
	x := make([][]float64, n)
	y := make([]float64, n)
	coef := []float64{2, -1, 0.5, 3, -2.5, 1.5}
	for i := 0; i < n; i++ {
		row := bitRow(r, p)
		s := 0.5
		for j := range row {
			s += coef[j] * row[j]
		}
		x[i] = row
		y[i] = s + 0.01*r.NormFloat64()
	}
	full, err := fitRows(x, y)
	if err != nil {
		t.Fatal(err)
	}
	sw, err := stepwiseRows(x, y, StepwiseOptions{FEnter: 1e-9})
	if err != nil {
		t.Fatal(err)
	}
	if len(sw.Selected) != p {
		t.Fatalf("stepwise selected %d of %d strong predictors", len(sw.Selected), p)
	}
	// Compare predictions on fresh points.
	for trial := 0; trial < 20; trial++ {
		row := bitRow(r, p)
		a := predict(full, row)
		b := predictSelected(sw, row)
		if math.Abs(a-b) > 1e-6 {
			t.Fatalf("stepwise (%v) and OLS (%v) disagree", b, a)
		}
	}
}

// TestWelchTSymmetry: swapping the groups negates t.
func TestWelchTSymmetry(t *testing.T) {
	r := rand.New(rand.NewSource(42))
	a := make([]float64, 30)
	b := make([]float64, 25)
	for i := range a {
		a[i] = r.NormFloat64()
	}
	for i := range b {
		b[i] = 1 + r.NormFloat64()
	}
	t1, df1, err := WelchT(a, b)
	if err != nil {
		t.Fatal(err)
	}
	t2, df2, err := WelchT(b, a)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(t1+t2) > 1e-12 || math.Abs(df1-df2) > 1e-12 {
		t.Errorf("asymmetric: t %v/%v df %v/%v", t1, t2, df1, df2)
	}
}

// TestClusteringSingletonAndFull covers cut extremes for a bigger set.
func TestClusteringCutExtremes(t *testing.T) {
	r := rand.New(rand.NewSource(43))
	n := 12
	dist := make([][]float64, n)
	for i := range dist {
		dist[i] = make([]float64, n)
	}
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			d := r.Float64() + 0.01
			dist[i][j], dist[j][i] = d, d
		}
	}
	dg, err := HierarchicalCluster(dist, AverageLinkage)
	if err != nil {
		t.Fatal(err)
	}
	ln, err := dg.Cut(n)
	if err != nil {
		t.Fatal(err)
	}
	seen := map[int]bool{}
	for _, l := range ln {
		seen[l] = true
	}
	if len(seen) != n {
		t.Errorf("Cut(n) gave %d clusters, want %d", len(seen), n)
	}
	if len(dg.merges) != n-1 {
		t.Errorf("%d merges recorded, want %d", len(dg.merges), n-1)
	}
	// Merge distances under average linkage on random data need not be
	// monotone, but they must all be positive.
	for _, m := range dg.merges {
		if m.dist <= 0 {
			t.Errorf("non-positive merge distance %v", m.dist)
		}
	}
}
