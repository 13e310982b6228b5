package stats

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"testing"

	"emsim/internal/linalg"
)

// referenceStep is one scan of referenceStepwise: every candidate's
// score, its RSS reduction (0 for a candidate that may not enter), the
// best candidate (-1 for none), and the entering one's F statistic
// against the step's critical value.
type referenceStep struct {
	score   []float64
	best    int
	f, crit float64
}

// referenceStepwise is StepwiseRegression as it was when it kept each
// candidate as a dense float column: each step scores every candidate
// with its own pass over vc[c]·r, then projects, subtracts and re-norms
// each remaining candidate in three more, one column at a time (modified
// Gram-Schmidt). x holds the candidates as columns of len(y) floats. It
// reports each step's scan, and is the oracle TestStepwiseMatchesReference
// and FuzzStepwiseMatchesReference hold the Gram-domain selection to.
// Its first len(follow) steps enter follow's columns whatever their
// scores, and then it selects on its own. Every product is rounded before
// it is summed, as in the production code, so the oracle holds on
// platforms that fuse multiply-adds too.
func referenceStepwise(x [][]float64, y []float64, opts StepwiseOptions, follow []int) (*StepwiseResult, []referenceStep, error) {
	n, p := len(y), len(x)
	if n == 0 {
		return nil, nil, fmt.Errorf("stats: stepwise needs a nonempty y")
	}
	maxSel := p
	if opts.MaxPredictors > 0 && opts.MaxPredictors < maxSel {
		maxSel = opts.MaxPredictors
	}
	if lim := n - 2; maxSel > lim {
		maxSel = lim // keep at least one residual degree of freedom
	}
	fScale := opts.FEnter
	//emsim:ignore floatcmp zero is the unset-option sentinel, written literally, never computed
	if fScale == 0 {
		fScale = 1
	}

	// The intercept is the first basis direction; the residual r tracks y
	// minus its projection onto the model so far, and vc[c] tracks each
	// candidate column minus its projection onto the same span. Both are
	// updated in place as columns enter the model.
	q0 := 1 / math.Sqrt(float64(n))
	r := append([]float64(nil), y...)
	g0 := 0.0
	for _, v := range r {
		g0 += float64(v * q0)
	}
	for i := range r {
		r[i] -= float64(g0 * q0)
	}
	rssCur := linalg.Dot(r, r)

	colNorm2 := make([]float64, p) // original norms, the collinearity yardstick
	vc := make([][]float64, p)
	vcNorm2 := make([]float64, p)
	for c := range x {
		v := append([]float64(nil), x[c]...)
		colNorm2[c] = linalg.Dot(v, v)
		g := 0.0
		for _, e := range v {
			g += float64(e * q0)
		}
		for i := range v {
			v[i] -= float64(g * q0)
		}
		vc[c] = v
		vcNorm2[c] = linalg.Dot(v, v)
	}

	var steps []referenceStep
	selected := []int{}
	inModel := make([]bool, p)
	for len(selected) < maxSel {
		df2 := n - len(selected) - 2 // residual dof after adding one more
		if df2 < 1 {
			break
		}
		step := referenceStep{score: make([]float64, p), best: -1, crit: fCriticalApprox(df2) * fScale}
		bestDelta := 0.0
		for c := 0; c < p; c++ {
			if inModel[c] {
				continue
			}
			// vcNorm2 is a sum of squares, so it is <= 0 only when exactly
			// zero — the tolerance test alone covers the all-zero column.
			if vcNorm2[c] <= 1e-12*colNorm2[c] {
				continue // (near-)collinear with the current model
			}
			g := linalg.Dot(vc[c], r)
			delta := g * g / vcNorm2[c]
			step.score[c] = delta
			if delta > bestDelta {
				step.best, bestDelta = c, delta
			}
		}
		bestCol, forced := step.best, len(selected) < len(follow)
		if forced {
			bestCol = follow[len(selected)]
			bestDelta = step.score[bestCol]
		}
		if bestCol < 0 || inModel[bestCol] {
			step.f = math.NaN()
			steps = append(steps, step)
			break
		}
		denom := (rssCur - bestDelta) / float64(df2)
		if denom <= 0 {
			// Perfect fit: accept the column and stop.
			step.f = math.Inf(1)
			steps = append(steps, step)
			selected = append(selected, bestCol)
			break
		}
		step.f = bestDelta / denom
		steps = append(steps, step)
		if step.f < step.crit && !forced {
			break
		}
		selected = append(selected, bestCol)
		inModel[bestCol] = true
		// The winner, normalized, is the next basis direction; fold it out
		// of the residual and every remaining candidate (modified
		// Gram-Schmidt step), then refresh the candidate norms.
		q := vc[bestCol]
		inv := 1 / math.Sqrt(vcNorm2[bestCol])
		for i := range q {
			q[i] *= inv
		}
		g := linalg.Dot(q, r)
		for i := range r {
			r[i] -= float64(g * q[i])
		}
		rssCur -= bestDelta
		if rssCur < 0 {
			rssCur = 0
		}
		for c := 0; c < p; c++ {
			if inModel[c] || vcNorm2[c] <= 1e-12*colNorm2[c] {
				continue
			}
			v := vc[c]
			gc := linalg.Dot(q, v)
			for i := range v {
				v[i] -= float64(gc * q[i])
			}
			vcNorm2[c] = linalg.Dot(v, v)
		}
	}

	model, err := LinearRegression(len(selected), func(k int, dst []float64) { copy(dst, x[selected[k]]) }, y)
	if err != nil {
		return nil, nil, err
	}
	return &StepwiseResult{Selected: selected, Model: model, Dropped: p - len(selected)}, steps, nil
}

// bitColumns packs 0/1 float columns into the words StepwiseRegression
// takes: bit i%64 of word i/64 is row i.
func bitColumns(x [][]float64) [][]uint64 {
	cols := make([][]uint64, len(x))
	for c, col := range x {
		cols[c] = make([]uint64, (len(col)+63)/64)
		for i, v := range col {
			if v != 0 {
				cols[c][i/64] |= 1 << (i % 64)
			}
		}
	}
	return cols
}

// relClose reports whether a and b agree within rel of the larger.
func relClose(a, b, rel float64) bool {
	return math.Abs(a-b) <= rel*math.Max(math.Abs(a), math.Abs(b))
}

// matchReference holds a Gram-domain selection on the 0/1 columns x to
// the reference's. Where the two select the same columns, the fits must
// be bit-equal. Where they part, the selection must be one the reference
// could have made but for rounding (1e-9 relative): the reference,
// replayed along it, must score each entering column as high as its
// best candidate and find an F statistic that clears the critical value,
// and where the selection stops, the reference's F must not clear it.
// So where the selections first part, either the reference scores the
// two columns equally (a tie), or one stops where the other goes on and
// the reference's F there equals the critical value (the threshold). Two
// columns can tie without being parallel, so after a tie the selections
// may differ in every later step.
func matchReference(t *testing.T, name string, x [][]float64, y []float64, opts StepwiseOptions) referenceMatch {
	t.Helper()
	want, _, wantErr := referenceStepwise(x, y, opts, nil)
	got, gotErr := StepwiseRegression(context.Background(), bitColumns(x), y, opts)
	if (gotErr == nil) != (wantErr == nil) {
		t.Fatalf("%s: error %v, reference error %v", name, gotErr, wantErr)
	}
	if gotErr != nil {
		return exactMatch
	}
	g, w := got.Selected, want.Selected
	if got.Dropped != len(x)-len(g) {
		t.Fatalf("%s: dropped %d of %d candidates with %d selected", name, got.Dropped, len(x), len(g))
	}
	if equalInts(g, w) {
		if !sameBits(got.Model.Coef, want.Model.Coef) ||
			math.Float64bits(got.Model.Intercept) != math.Float64bits(want.Model.Intercept) {
			t.Fatalf("%s: fit (%v, %v), reference (%v, %v)", name,
				got.Model.Intercept, got.Model.Coef, want.Model.Intercept, want.Model.Coef)
		}
		return exactMatch
	}
	_, path, err := referenceStepwise(x, y, opts, g)
	if err != nil {
		t.Fatalf("%s: the reference along %v: %v", name, g, err)
	}
	for k, c := range g {
		if k >= len(path) {
			t.Fatalf("%s: selected %v, reference %v, which stops after %v", name, g, w, g[:k])
		}
		st := path[k]
		if st.best < 0 || !relClose(st.score[c], st.score[st.best], 1e-9) {
			t.Fatalf("%s: selected %v, reference %v; after %v the reference scores %d at %v, its best at %v",
				name, g, w, g[:k], c, st.score[c], st.score[max(st.best, 0)])
		}
		if st.f < st.crit && !relClose(st.f, st.crit, 1e-9) {
			t.Fatalf("%s: selected %v, reference %v; %d enters after %v with F %v against %v",
				name, g, w, c, g[:k], st.f, st.crit)
		}
	}
	if k := len(g); k < len(path) {
		if st := path[k]; st.best >= 0 && st.f >= st.crit && !relClose(st.f, st.crit, 1e-9) {
			t.Fatalf("%s: selected %v, reference %v, whose F after %v is %v against %v", name, g, w, g, st.f, st.crit)
		}
	}
	if k := firstDifference(g, w); k < len(g) && k < len(w) {
		return tieMatch
	}
	return thresholdMatch
}

// firstDifference returns the first index where a and b differ, or the
// shorter length if one is a prefix of the other.
func firstDifference(a, b []int) int {
	k := 0
	for k < len(a) && k < len(b) && a[k] == b[k] {
		k++
	}
	return k
}

// referenceMatch is how matchReference found a selection to compare with
// the reference's.
type referenceMatch int

const (
	exactMatch     referenceMatch = iota // same selection, bit-equal fit
	tieMatch                             // parted at a tie
	thresholdMatch                       // one stopped at F = crit
)

// stepwiseProblem draws one seeded 0/1 selection problem: columns of
// random density (constant ones included), exact copies and complements
// of earlier columns, and a sparse target over a few of them plus noise.
// About a third of the problems have more candidates than samples.
func stepwiseProblem(seed int64) ([][]float64, []float64, StepwiseOptions) {
	rng := rand.New(rand.NewSource(seed))
	n := 12 + rng.Intn(70)
	p := 4 + rng.Intn(48)
	cols := make([][]float64, p)
	for c := range cols {
		col := make([]float64, n)
		switch kind := rng.Intn(8); {
		case kind == 7 && c > 0: // an exact copy
			copy(col, cols[rng.Intn(c)])
		case kind == 6 && c > 0: // a complement
			for i, v := range cols[rng.Intn(c)] {
				col[i] = 1 - v
			}
		case kind == 5: // all zeros or all ones
			for i := range col {
				col[i] = float64(c % 2)
			}
		default:
			density := rng.Float64()
			for i := range col {
				if rng.Float64() < density {
					col[i] = 1
				}
			}
		}
		cols[c] = col
	}
	y := make([]float64, n)
	for k := 0; k < 1+rng.Intn(5); k++ {
		c, w := rng.Intn(p), 3*rng.NormFloat64()
		for i := range y {
			y[i] += w * cols[c][i]
		}
	}
	for i := range y {
		y[i] += 0.3 * rng.NormFloat64()
	}
	var opts StepwiseOptions
	if seed%2 == 1 {
		opts.MaxPredictors = 1 + rng.Intn(p)
	}
	if seed%3 == 2 {
		opts.FEnter = 0.25
	}
	return cols, y, opts
}

func sameBits(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

// TestStepwiseMatchesReference holds the Gram-domain selection to the
// float reference on seeded 0/1 problems (see matchReference), with and
// without MaxPredictors and FEnter. Most problems must match exactly and
// run several steps; ties between copies, complements and columns that
// became parallel are counted, not failed.
func TestStepwiseMatchesReference(t *testing.T) {
	const problems = 400
	var matches [3]int
	multi := 0
	for seed := int64(0); seed < problems; seed++ {
		x, y, opts := stepwiseProblem(seed)
		matches[matchReference(t, fmt.Sprintf("seed %d", seed), x, y, opts)]++
		if sw, err := StepwiseRegression(context.Background(), bitColumns(x), y, opts); err == nil && len(sw.Selected) >= 2 {
			multi++
		}
	}
	t.Logf("of %d problems, %d matched exactly, %d parted at a tie and %d at the threshold",
		problems, matches[exactMatch], matches[tieMatch], matches[thresholdMatch])
	if matches[exactMatch] <= problems/2 {
		t.Errorf("only %d of %d problems matched exactly", matches[exactMatch], problems)
	}
	// The comparison is only meaningful if most problems run several
	// steps.
	if multi < problems/2 {
		t.Errorf("only %d of %d problems selected two or more columns", multi, problems)
	}
}

// stepwiseFuzzProblem turns fuzz bytes into a 0/1 selection problem of
// at most 96 rows and 48 columns: each column is an exact copy or a
// complement of an earlier one, bits taken from the bytes, or a seeded
// draw at a density the bytes set. The target takes a bounded value per
// row from the bytes. A flag malforms one column, by a bit at row n or a
// word too many, which StepwiseRegression must reject.
func stepwiseFuzzProblem(data []byte) (x [][]float64, y []float64, opts StepwiseOptions, malformed int) {
	next := func() byte {
		if len(data) == 0 {
			return 0
		}
		b := data[0]
		data = data[1:]
		return b
	}
	n, p, flags := 1+int(next())%96, 1+int(next())%48, next()
	if flags&1 != 0 {
		opts.MaxPredictors = 1 + int(next())%p
	}
	if flags&2 != 0 {
		opts.FEnter = float64(next()) / 32
	}
	malformed = -1
	if flags&4 != 0 {
		malformed = int(next()) % p
	}
	x = make([][]float64, p)
	for c := range x {
		col := make([]float64, n)
		kind, arg := next(), next()
		switch {
		case kind%4 == 0 && c > 0:
			copy(col, x[int(arg)%c])
		case kind%4 == 1 && c > 0:
			for i, v := range x[int(arg)%c] {
				col[i] = 1 - v
			}
		case kind%4 == 2:
			var b byte
			for i := range col {
				if i%8 == 0 {
					b = next()
				}
				col[i] = float64(b >> (i % 8) & 1)
			}
		default:
			rng := rand.New(rand.NewSource(int64(kind)<<8 | int64(arg)))
			density := float64(arg) / 255
			for i := range col {
				if rng.Float64() < density {
					col[i] = 1
				}
			}
		}
		x[c] = col
	}
	y = make([]float64, n)
	for i := range y {
		y[i] = float64(int8(next())) / 8
	}
	return x, y, opts, malformed
}

// FuzzStepwiseMatchesReference holds the Gram-domain selection to the
// float reference (see matchReference) on problems the fuzzer builds
// (see stepwiseFuzzProblem), and requires an error for a malformed
// column.
func FuzzStepwiseMatchesReference(f *testing.F) {
	f.Add([]byte{40, 12, 0, 3, 128, 0, 0, 1, 5, 2, 0xa5, 0x3c, 0xff, 0x01, 0x80, 3, 200, 7, 9, 11, 13, 250, 240, 3, 4})
	f.Add([]byte{95, 47, 3, 20, 64, 0, 0, 0, 1, 1, 0, 3, 77, 3, 140})
	f.Add([]byte{63, 5, 4, 2, 3, 90, 3, 160, 0, 0, 1, 1})
	f.Add([]byte{127, 3, 12, 1, 3, 30, 3, 220, 2, 0xf0})
	f.Fuzz(func(t *testing.T, data []byte) {
		x, y, opts, malformed := stepwiseFuzzProblem(data)
		if malformed < 0 {
			matchReference(t, "fuzz", x, y, opts)
			return
		}
		cols := bitColumns(x)
		col := cols[malformed]
		if n := len(y); n%64 != 0 {
			col[len(col)-1] |= 1 << (n % 64)
		} else {
			cols[malformed] = append(col, 0)
		}
		if res, err := StepwiseRegression(context.Background(), cols, y, opts); err == nil {
			t.Fatalf("a malformed column %d was accepted, selecting %v", malformed, res.Selected)
		}
	})
}
