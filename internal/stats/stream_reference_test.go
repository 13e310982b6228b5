package stats

import (
	"math"
	"math/rand"
	"testing"
)

// referenceCorrAdd is CorrAccumulator.Add as it was before the
// co-moment update was blocked: every trace adds its products to the
// whole guesses × columns matrix at once. It drives an accumulator that
// never stages a block, so PeaksInto reads its matrix as the per-trace
// update left it. Kept as the oracle
// TestCorrAccumulatorMatchesPerTraceUpdate holds the blocked update to.
func referenceCorrAdd(a *CorrAccumulator, trace, hyp []float64) error {
	if len(hyp) != a.guesses {
		return errCorrHyp
	}
	if a.width < 0 {
		a.grow(len(trace))
		copy(a.firstX, trace)
		copy(a.firstH, hyp)
	}
	if len(trace) < a.width {
		a.width = len(trace)
	}
	if len(trace) > a.maxLen {
		a.maxLen = len(trace)
	}
	a.n++
	n := float64(a.n)
	dx := make([]float64, a.width)
	for col := 0; col < a.width; col++ {
		x := trace[col]
		if x != a.firstX[col] || math.IsInf(x, 0) {
			a.variedX[col] = true
		}
		d := x - a.meanX[col]
		a.meanX[col] += d / n
		a.m2x[col] += d * (x - a.meanX[col])
		dx[col] = d
	}
	for g := 0; g < a.guesses; g++ {
		h := hyp[g]
		if h != a.firstH[g] || math.IsInf(h, 0) {
			a.variedH[g] = true
		}
		d1 := h - a.meanH[g]
		a.meanH[g] += d1 / n
		d2 := h - a.meanH[g]
		a.m2h[g] += d1 * d2
		row := a.c[g*a.stride : g*a.stride+a.width]
		for col := range row {
			row[col] += dx[col] * d2
		}
	}
	return nil
}

// sameFloat is bit equality, except that any NaN matches any NaN: when
// both operands of an addition are NaN, amd64 returns the payload of
// whichever operand the compiler placed first, an order Go leaves open.
func sameFloat(a, b float64) bool {
	return math.Float64bits(a) == math.Float64bits(b) || (math.IsNaN(a) && math.IsNaN(b))
}

// corrReferenceCampaign is a CPA-shaped input with every case the
// blocked update must carry through unchanged: a constant column, a
// +Inf and a -Inf column, traces that narrow the width mid-block, and
// (with more than one guess) a NaN in one hypothesis row. Values are full-precision normals, so any
// change in the order of the additions shows in the low bits.
func corrReferenceCampaign(guesses, n int) (traces, hyps [][]float64) {
	const width = 45
	rng := rand.New(rand.NewSource(int64(guesses)))
	traces = make([][]float64, n)
	hyps = make([][]float64, n)
	for i := range traces {
		w := width
		switch {
		case i >= 100:
			w = 29 // a second narrowing, at block offset 4
		case i >= 19:
			w = 37 // narrows at block offset 3
		}
		tr := make([]float64, w)
		for c := range tr {
			tr[c] = rng.NormFloat64() * 3
		}
		tr[0] = 1.5
		tr[1] = math.Inf(1)
		if i%3 == 0 {
			tr[2] = math.Inf(-1)
		}
		traces[i] = tr
		h := make([]float64, guesses)
		for g := range h {
			h[g] = rng.NormFloat64() + float64(g%4)
		}
		hyps[i] = h
	}
	if guesses > 1 {
		// One guess goes NaN from mid-campaign on; with a single guess
		// that would leave nothing finite to compare at later snapshots.
		hyps[n/2][guesses-1] = math.NaN()
	}
	return traces, hyps
}

// TestCorrAccumulatorMatchesPerTraceUpdate holds the blocked co-moment
// update to the per-trace one bit for bit: the live co-moments and the
// PeaksInto output must match at every snapshot, for snapshot cadences
// that land on block boundaries, inside blocks, and only at the end.
func TestCorrAccumulatorMatchesPerTraceUpdate(t *testing.T) {
	const n = 150
	for _, guesses := range []int{1, 9, 256} {
		traces, hyps := corrReferenceCampaign(guesses, n)
		for _, every := range []int{1, 7, 64, n} {
			acc, ref := NewCorrAccumulator(guesses), NewCorrAccumulator(guesses)
			peak, at := make([]float64, guesses), make([]int, guesses)
			refPeak, refAt := make([]float64, guesses), make([]int, guesses)
			for i := 0; i < n; i++ {
				if err := acc.Add(traces[i], hyps[i]); err != nil {
					t.Fatal(err)
				}
				if err := referenceCorrAdd(ref, traces[i], hyps[i]); err != nil {
					t.Fatal(err)
				}
				if i+1 < 3 || ((i+1)%every != 0 && i+1 != n) {
					continue
				}
				if err := acc.PeaksInto(peak, at); err != nil {
					t.Fatal(err)
				}
				if err := ref.PeaksInto(refPeak, refAt); err != nil {
					t.Fatal(err)
				}
				if acc.Samples() != ref.Samples() {
					t.Fatalf("guesses %d, every %d, trace %d: width %d, reference %d",
						guesses, every, i+1, acc.Samples(), ref.Samples())
				}
				for g := 0; g < guesses; g++ {
					if !sameFloat(peak[g], refPeak[g]) || at[g] != refAt[g] {
						t.Fatalf("guesses %d, every %d, trace %d, guess %d: peak %v at %d, reference %v at %d",
							guesses, every, i+1, g, peak[g], at[g], refPeak[g], refAt[g])
					}
					row := acc.c[g*acc.stride:][:acc.Samples()]
					refRow := ref.c[g*ref.stride:][:ref.Samples()]
					for col := range row {
						if !sameFloat(row[col], refRow[col]) {
							t.Fatalf("guesses %d, every %d, trace %d: co-moment (%d, %d) = %v, reference %v",
								guesses, every, i+1, g, col, row[col], refRow[col])
						}
					}
				}
			}
		}
	}
}

// BenchmarkCorrAccumulatorAdd streams a defend-shaped CPA campaign into
// the accumulator: 256 guesses × 2,207 columns, 512 traces, with a
// PeaksInto key-rank snapshot every 64 traces. One op is one campaign.
func BenchmarkCorrAccumulatorAdd(b *testing.B) {
	const guesses, width, n, step = 256, 2207, 512, 64
	rng := rand.New(rand.NewSource(1))
	traces := make([][]float64, 8)
	for i := range traces {
		traces[i] = make([]float64, width)
		for c := range traces[i] {
			traces[i][c] = rng.NormFloat64()
		}
	}
	hyps := make([][]float64, 8)
	for i := range hyps {
		hyps[i] = make([]float64, guesses)
		for g := range hyps[i] {
			hyps[i][g] = float64(rng.Intn(9))
		}
	}
	peak, at := make([]float64, guesses), make([]int, guesses)
	b.ReportAllocs()
	b.ResetTimer()
	for it := 0; it < b.N; it++ {
		acc := NewCorrAccumulator(guesses)
		for i := 0; i < n; i++ {
			if err := acc.Add(traces[i%len(traces)], hyps[(i*5)%len(hyps)]); err != nil {
				b.Fatal(err)
			}
			if (i+1)%step == 0 {
				if err := acc.PeaksInto(peak, at); err != nil {
					b.Fatal(err)
				}
			}
		}
	}
}
