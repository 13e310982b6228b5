package stats

// One-pass streaming accumulators for the security-sweep analytics. The
// batch formulations buffer every trace and recompute the statistic from
// scratch at each point of a sweep — O(N²) work and O(N·samples)
// resident memory over a campaign of N traces. The accumulators below
// hold running moments instead (Welford for variances, the pairwise
// co-moment update for covariances), so a sweep becomes a single pass:
// each trace is folded in once and discarded, and a snapshot at any
// prefix costs O(state), never O(traces).
//
// Determinism contract: an accumulator's result is a pure function of
// the sequence of Add calls. Floating-point accumulation does not
// commute, so parallel producers must reduce index-ordered (the
// defend.Evaluate harness does); given the same feed order the snapshot
// is bit-for-bit reproducible.

import (
	"errors"
	"fmt"
	"math"
)

// errWelchGroup is the cold-path misuse error of WelchAccumulator.Add,
// predeclared so the hot path never allocates.
var errWelchGroup = errors.New("stats: WelchAccumulator group must be 0 or 1")

// WelchAccumulator holds per-sample-point running moments of two trace
// groups (TVLA's fixed and random populations) and can emit the
// per-point Welch t statistic at any prefix of the stream. Memory is
// O(sample points), independent of trace count.
//
// Variable-length traces follow the attacker's-view truncation rule of
// the batch analyses: the live width is the length of the shortest
// trace seen so far, and a shorter trace retroactively narrows it.
// Narrowing is exact, not approximate — per-column moments never mix
// columns, so the surviving columns carry the same values they would in
// a batch over the pre-truncated matrix.
type WelchAccumulator struct {
	width  int // live columns; -1 before the first trace
	maxLen int // longest trace ever seen
	n      [2]int
	mean   [2][]float64
	m2     [2][]float64
}

// NewWelchAccumulator returns an empty accumulator; the first Add sizes
// the per-column state.
func NewWelchAccumulator() *WelchAccumulator {
	return &WelchAccumulator{width: -1}
}

// Add folds one trace into the running moments of group 0 or 1 (a
// Welford mean/M2 update per surviving column).
//
//emsim:noalloc
func (w *WelchAccumulator) Add(group int, trace []float64) error {
	if group < 0 || group > 1 {
		return errWelchGroup
	}
	if w.width < 0 {
		//emsim:ignore noalloc one-time state sizing on the first trace; every later Add reuses it
		w.grow(len(trace))
	}
	if len(trace) < w.width {
		w.width = len(trace)
	}
	if len(trace) > w.maxLen {
		w.maxLen = len(trace)
	}
	w.n[group]++
	n := float64(w.n[group])
	mean, m2 := w.mean[group], w.m2[group]
	for c := 0; c < w.width; c++ {
		x := trace[c]
		d := x - mean[c]
		mean[c] += d / n
		m2[c] += float64(d * (x - mean[c]))
	}
	return nil
}

// grow allocates the per-column state for the first trace's width.
func (w *WelchAccumulator) grow(width int) {
	w.width = width
	w.maxLen = width
	for g := range w.mean {
		w.mean[g] = make([]float64, width)
		w.m2[g] = make([]float64, width)
	}
}

// Counts returns the number of traces folded into each group.
func (w *WelchAccumulator) Counts() (n0, n1 int) { return w.n[0], w.n[1] }

// Samples returns the live (post-truncation) column count, 0 before the
// first trace.
func (w *WelchAccumulator) Samples() int {
	if w.width < 0 {
		return 0
	}
	return w.width
}

// MaxSamples returns the length of the longest trace ever folded in;
// MaxSamples()-Samples() is the column count truncation has discarded.
func (w *WelchAccumulator) MaxSamples() int { return w.maxLen }

// TInto writes the per-column Welch t statistic of the current prefix
// into dst (reusing its capacity) and returns it. Both groups need at
// least two traces.
func (w *WelchAccumulator) TInto(dst []float64) ([]float64, error) {
	if w.n[0] < 2 || w.n[1] < 2 {
		return nil, fmt.Errorf("stats: WelchAccumulator needs >= 2 traces per group (%d, %d)", w.n[0], w.n[1])
	}
	width := w.Samples()
	if cap(dst) < width {
		dst = make([]float64, width)
	}
	dst = dst[:width]
	na, nb := float64(w.n[0]), float64(w.n[1])
	for c := 0; c < width; c++ {
		va := w.m2[0][c] / (na - 1)
		vb := w.m2[1][c] / (nb - 1)
		t, _ := welchFromMoments(w.mean[0][c], va, na, w.mean[1][c], vb, nb)
		dst[c] = t
	}
	return dst, nil
}

// CorrAccumulator holds the running Pearson state of a CPA attack: for
// every (candidate guess, trace column) pair it maintains the pairwise
// co-moment alongside per-column and per-guess Welford moments, so the
// per-guess peak |correlation| is available at any prefix. Memory is
// O(guesses × columns), independent of trace count.
//
// Truncation follows WelchAccumulator's rule: the live width shrinks to
// the shortest trace seen, exactly.
type CorrAccumulator struct {
	guesses int
	width   int // live columns; -1 before the first trace
	stride  int // allocated row length of c (the width at first Add)
	maxLen  int
	n       int

	meanX, m2x, firstX []float64 // per column
	variedX            []bool
	meanH, m2h, firstH []float64 // per guess
	variedH            []bool
	c                  []float64 // co-moments, c[g*stride+col], less the pending block

	// The pending block: trace k's pre-update column deviations are
	// blockX[k*stride+col] and its post-update guess deviations
	// blockH[g*corrBlock+k], for the first pending traces k.
	blockX, blockH []float64
	pending        int
}

// corrBlock is the number of traces whose co-moment products
// CorrAccumulator stages before applying them; flush unrolls it.
const corrBlock = 8

// NewCorrAccumulator returns an empty accumulator for the given number
// of candidate guesses; the first Add sizes the per-column state.
func NewCorrAccumulator(guesses int) *CorrAccumulator {
	return &CorrAccumulator{guesses: guesses, width: -1}
}

// errCorrHyp is the cold-path misuse error of CorrAccumulator.Add.
var errCorrHyp = errors.New("stats: CorrAccumulator hypothesis row does not match the guess count")

// Add folds one (trace, hypothesis-row) pair into the running sums.
// hyp[g] is candidate g's predicted leakage for this trace; its length
// must equal the accumulator's guess count.
//
//emsim:noalloc
func (a *CorrAccumulator) Add(trace, hyp []float64) error {
	if len(hyp) != a.guesses {
		return errCorrHyp
	}
	if a.width < 0 {
		//emsim:ignore noalloc one-time state sizing on the first trace; every later Add reuses it
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
	k := a.pending
	dx := a.blockX[k*a.stride : k*a.stride+a.width]
	for col := range dx {
		x := trace[col]
		// A column is dead only when every value is bit-identical to the
		// first AND finite: a constant ±Inf column has NaN variance in the
		// two-pass formulation, which counts as "live, contributes nothing"
		// there, and the streaming side must agree.
		//emsim:ignore floatcmp exact-constant detection needs the bitwise comparison, not a tolerance
		if x != a.firstX[col] || math.IsInf(x, 0) {
			a.variedX[col] = true
		}
		d := x - a.meanX[col]
		a.meanX[col] += d / n
		a.m2x[col] += float64(d * (x - a.meanX[col]))
		dx[col] = d
	}
	for g := 0; g < a.guesses; g++ {
		h := hyp[g]
		// Same constant-finite rule as the column flags above.
		//emsim:ignore floatcmp exact-constant detection needs the bitwise comparison, not a tolerance
		if h != a.firstH[g] || math.IsInf(h, 0) {
			a.variedH[g] = true
		}
		d1 := h - a.meanH[g]
		a.meanH[g] += d1 / n
		d2 := h - a.meanH[g]
		a.m2h[g] += float64(d1 * d2)
		a.blockH[g*corrBlock+k] = d2
	}
	a.pending++
	if a.pending == corrBlock {
		a.flush()
	}
	return nil
}

// flush applies the pending block to the co-moments and empties it.
// Pairwise co-moment: C += (x - x̄_old)·(h - h̄_new) per trace. Each
// live co-moment is loaded once, gets the block's products added in
// trace order, and is stored once: the same additions in the same
// order as a per-trace update, so the result is bit-identical, while
// the matrix crosses memory once per block. A partial block is padded
// with zero deviations; adding +0·+0 leaves a co-moment unchanged,
// since it starts at +0 and a round-to-nearest sum is -0 only when both
// operands are. A trace that narrowed the width mid-block leaves its
// products in the dropped columns unapplied; nothing reads those again.
//
//emsim:noalloc
func (a *CorrAccumulator) flush() {
	if a.pending == 0 {
		return
	}
	w, s := a.width, a.stride
	for k := a.pending; k < corrBlock; k++ {
		clear(a.blockX[k*s : k*s+w])
		for g := 0; g < a.guesses; g++ {
			a.blockH[g*corrBlock+k] = 0
		}
	}
	// The [i:][:w] form gives every slice the length w, which lets the
	// compiler drop the bounds checks from the inner loop.
	x0, x1, x2, x3 := a.blockX[0*s:][:w], a.blockX[1*s:][:w], a.blockX[2*s:][:w], a.blockX[3*s:][:w]
	x4, x5, x6, x7 := a.blockX[4*s:][:w], a.blockX[5*s:][:w], a.blockX[6*s:][:w], a.blockX[7*s:][:w]
	for g := 0; g < a.guesses; g++ {
		d := (*[corrBlock]float64)(a.blockH[g*corrBlock:])
		row := a.c[g*s:][:w]
		for col := range row {
			v := row[col]
			v += float64(x0[col] * d[0])
			v += float64(x1[col] * d[1])
			v += float64(x2[col] * d[2])
			v += float64(x3[col] * d[3])
			v += float64(x4[col] * d[4])
			v += float64(x5[col] * d[5])
			v += float64(x6[col] * d[6])
			v += float64(x7[col] * d[7])
			row[col] = v
		}
	}
	a.pending = 0
}

// grow allocates the per-column and co-moment state for the first
// trace's width.
func (a *CorrAccumulator) grow(width int) {
	a.width = width
	a.stride = width
	a.maxLen = width
	a.meanX = make([]float64, width)
	a.m2x = make([]float64, width)
	a.firstX = make([]float64, width)
	a.variedX = make([]bool, width)
	a.blockX = make([]float64, corrBlock*width)
	a.meanH = make([]float64, a.guesses)
	a.m2h = make([]float64, a.guesses)
	a.firstH = make([]float64, a.guesses)
	a.variedH = make([]bool, a.guesses)
	a.blockH = make([]float64, a.guesses*corrBlock)
	a.c = make([]float64, a.guesses*width)
}

// Traces returns the number of (trace, hypothesis) pairs folded in.
func (a *CorrAccumulator) Traces() int { return a.n }

// Guesses returns the candidate count fixed at construction.
func (a *CorrAccumulator) Guesses() int { return a.guesses }

// Samples returns the live (post-truncation) column count.
func (a *CorrAccumulator) Samples() int {
	if a.width < 0 {
		return 0
	}
	return a.width
}

// MaxSamples returns the length of the longest trace ever folded in.
func (a *CorrAccumulator) MaxSamples() int { return a.maxLen }

// LiveColumns counts columns whose values have varied — the columns a
// batch correlation would not skip as constant.
func (a *CorrAccumulator) LiveColumns() int {
	live := 0
	for col := 0; col < a.Samples(); col++ {
		if a.variedX[col] {
			live++
		}
	}
	return live
}

// LiveGuesses counts candidates whose predictions have varied.
func (a *CorrAccumulator) LiveGuesses() int {
	live := 0
	for _, v := range a.variedH {
		if v {
			live++
		}
	}
	return live
}

// PeaksInto writes, for every guess, the peak |Pearson correlation| over
// the live columns and the column index where it peaks (ties keep the
// lowest column; dead guesses and dead columns score zero, matching the
// batch CPA's constant-column rule). peak and at must have length
// Guesses(). Needs at least three traces. It first applies any partial
// trace block.
func (a *CorrAccumulator) PeaksInto(peak []float64, at []int) error {
	if a.n < 3 {
		return fmt.Errorf("stats: CorrAccumulator needs >= 3 traces (have %d)", a.n)
	}
	if len(peak) != a.guesses || len(at) != a.guesses {
		return fmt.Errorf("stats: PeaksInto dst length %d/%d, want %d", len(peak), len(at), a.guesses)
	}
	a.flush()
	width := a.Samples()
	for g := 0; g < a.guesses; g++ {
		peak[g], at[g] = 0, 0
		if !a.variedH[g] || !(a.m2h[g] > 0) {
			continue
		}
		row := a.c[g*a.stride : g*a.stride+width]
		for col := 0; col < width; col++ {
			if !a.variedX[col] || !(a.m2x[col] > 0) {
				continue
			}
			corr := math.Abs(row[col]) / math.Sqrt(a.m2x[col]*a.m2h[g])
			if corr > peak[g] {
				peak[g], at[g] = corr, col
			}
		}
	}
	return nil
}
