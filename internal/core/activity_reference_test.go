package core

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"emsim/internal/cpu"
	"emsim/internal/device"
	"emsim/internal/stats"
)

// referenceActivityRow is the dense row the activity fit built per active
// cycle before it kept flip records: one float per global transition bit,
// 1 where the bit flips in a stage that is not stalled.
func referenceActivityRow(c *cpu.Cycle, offsets [cpu.NumStages]int, total int) []float64 {
	fv := make([]float64, total)
	for s := cpu.Stage(0); s < cpu.NumStages; s++ {
		st := &c.Stages[s]
		if st.Stalled {
			continue // gated stages contribute no switching noise
		}
		for w := 0; w < cpu.LatchWords(s); w++ {
			f := st.Flip[w]
			for b := 0; f != 0 && b < 32; b++ {
				if f&(1<<uint(b)) != 0 {
					fv[offsets[s]+32*w+b] = 1
				}
			}
		}
	}
	return fv
}

// referenceFitActivity is fitActivity as it was before flip records: the
// dense rows, stride-subsampled, whose columns StepwiseRegression takes
// packed straight from the rows.
func (t *Trainer) referenceFitActivity(m *Model, meas []measurement) error {
	offsets, total := featureOffsets()
	base := m.WithOptions(ModelOptions{
		PerStageSources: true,
		Activity:        ActivityNone,
		ModelStalls:     true,
		ModelCache:      true,
		ModelFlush:      true,
	})
	var feats [][]float64
	var resid []float64
	err := replay(t.core, meas, func(c *cpu.Cycle, amp float64) {
		flips := 0
		for s := cpu.Stage(0); s < cpu.NumStages; s++ {
			flips += c.Stages[s].FlipCount()
		}
		if flips == 0 {
			return
		}
		feats = append(feats, referenceActivityRow(c, offsets, total))
		resid = append(resid, amp-base.CycleAmplitude(c))
	})
	if err != nil {
		return err
	}
	const maxSamples = 4000
	if len(resid) > maxSamples {
		stride := (len(resid) + maxSamples - 1) / maxSamples
		var f2 [][]float64
		var r2 []float64
		for i := 0; i < len(resid); i += stride {
			f2 = append(f2, feats[i])
			r2 = append(r2, resid[i])
		}
		feats, resid = f2, r2
	}
	cols := make([][]uint64, total)
	for f := range cols {
		cols[f] = make([]uint64, (len(feats)+63)/64)
		for i, row := range feats {
			cols[f][i/64] |= uint64(row[f]) << (i % 64)
		}
	}
	sw, err := stats.StepwiseRegression(context.Background(), cols, resid, stats.StepwiseOptions{
		MaxPredictors: t.opts.MaxActivityBits,
	})
	if err != nil {
		return err
	}
	for s := cpu.Stage(0); s < cpu.NumStages; s++ {
		m.Activity[s] = StageActivityModel{Candidates: cpu.FeatureBits(s)}
	}
	for k, gbit := range sw.Selected {
		for s := cpu.Stage(0); s < cpu.NumStages; s++ {
			lo, hi := offsets[s], offsets[s]+cpu.FeatureBits(s)
			if gbit >= lo && gbit < hi {
				am := &m.Activity[s]
				am.Selected = append(am.Selected, gbit-lo)
				am.Coef = append(am.Coef, sw.Model.Coef[k])
			}
		}
	}
	m.Background += sw.Model.Intercept
	return nil
}

// TestActivityFitMatchesDenseRows holds the activity fit's flip records
// to the dense rows they replaced. Over random cycles, whose stalled
// stages carry flip words (a program's never do: a stalled latch holds),
// every bit column packed from the records must equal the dense rows'
// column.
// On the activity captures of a short campaign's device (9,310 active
// cycles, so the fit subsamples them), the fitted Activity and
// Background must be bit-equal to the dense-row fit at 1 and 2 workers.
func TestActivityFitMatchesDenseRows(t *testing.T) {
	offsets, total := featureOffsets()
	rng := rand.New(rand.NewSource(23))
	var recs []flipRecord
	var rows [][]float64
	stalledFlips := 0
	for i := 0; i < 3000; i++ {
		c := randomCycle(rng)
		flips := 0
		for s := range c.Stages {
			st := &c.Stages[s]
			flips += st.FlipCount()
			if st.Stalled && st.FlipCount() > 0 {
				stalledFlips++
			}
		}
		rec, active := recordFlips(&c)
		if active != (flips > 0) {
			t.Fatalf("cycle %d: active = %v with %d flips", i, active, flips)
		}
		if active {
			recs = append(recs, rec)
			rows = append(rows, referenceActivityRow(&c, offsets, total))
		}
	}
	if stalledFlips == 0 {
		t.Fatal("no random cycle has a stalled stage that flips")
	}
	cols := flipColumns(recs, offsets, total)
	if len(cols) != total {
		t.Fatalf("%d columns for %d features", len(cols), total)
	}
	for f, col := range cols {
		if len(col) != (len(recs)+63)/64 {
			t.Fatalf("feature %d: %d words for %d records", f, len(col), len(recs))
		}
		for i := range 64 * len(col) {
			bit := float64(col[i/64] >> (i % 64) & 1)
			want := 0.0 // the last word's bits past the records
			if i < len(rows) {
				want = rows[i][f]
			}
			if math.Float64bits(bit) != math.Float64bits(want) {
				t.Fatalf("record %d feature %d: column reads %v, dense row %v", i, f, bit, want)
			}
		}
	}

	ctx := context.Background()
	opts := smallCampaign()
	tr, err := NewTrainer(device.MustNew(device.DefaultOptions()), opts)
	if err != nil {
		t.Fatal(err)
	}
	m, err := tr.Run(ctx)
	if err != nil {
		t.Fatal(err)
	}
	// The activity phase's probes at the default campaign's 40 per
	// cluster, measured and extracted as Run does: enough active cycles
	// that the fit subsamples them.
	programs, err := randomOperandPrograms(func(i int) *rand.Rand {
		return trainStream(opts.Seed, PhaseActivity, int64(i))
	}, 40)
	if err != nil {
		t.Fatal(err)
	}
	mix, err := MixedProgram(trainStream(opts.Seed, PhaseActivity, streamMixed), opts.MixedLength)
	if err != nil {
		t.Fatal(err)
	}
	programs = append(programs, mix)
	ys, err := tr.measureAll(ctx, PhaseActivity, programs)
	if err != nil {
		t.Fatal(err)
	}
	meas, err := tr.extract(programs, ys)
	if err != nil {
		t.Fatal(err)
	}

	want := *m
	if err := tr.referenceFitActivity(&want, meas); err != nil {
		t.Fatal(err)
	}
	selected := 0
	for s := range want.Activity {
		selected += len(want.Activity[s].Selected)
	}
	if selected < 10 {
		t.Fatalf("the dense-row fit selected only %d bits; the comparison needs a long selection", selected)
	}
	for _, workers := range []int{1, 2} {
		tr.opts.Workers = workers
		got := *m
		if err := tr.fitActivity(ctx, &got, meas); err != nil {
			t.Fatal(err)
		}
		if math.Float64bits(got.Background) != math.Float64bits(want.Background) {
			t.Errorf("workers %d: Background %v, dense-row fit %v", workers, got.Background, want.Background)
		}
		for s := range got.Activity {
			g, w := &got.Activity[s], &want.Activity[s]
			if g.Candidates != w.Candidates || !slices.Equal(g.Selected, w.Selected) {
				t.Fatalf("workers %d stage %v: %d candidates, selected %v; dense-row fit %d, %v",
					workers, cpu.Stage(s), g.Candidates, g.Selected, w.Candidates, w.Selected)
			}
			requireSameBits(t, fmt.Sprintf("workers %d stage %v coefficients", workers, cpu.Stage(s)), g.Coef, w.Coef)
		}
	}
}
