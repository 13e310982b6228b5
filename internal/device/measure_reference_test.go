package device

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"sync"
	"testing"

	"emsim/internal/cpu"
	"emsim/internal/isa"
	"emsim/internal/signal"
)

// referenceEmit is the device emission as it was before the streaming
// emit: it renders a materialized trace of the program.
func referenceEmit(d *Device, tr cpu.Trace) []float64 {
	x := make([]float64, len(tr))
	for i := range tr {
		x[i] = d.phys.cycleAmplitude(&tr[i], &d.beta)
	}
	y := signal.MustReconstruct(x, d.opts.SamplesPerCycle, d.phys.kernel)
	if d.opts.ClockPPM != 0 {
		y = stretchPerCycle(y, d.opts.SamplesPerCycle, 1+d.opts.ClockPPM*1e-6)
	}
	return y
}

// referenceKeyedAveraged is the per-run loop that capture replaced:
// every averaging run re-simulates the program on core, materializes
// its trace and re-emits it, and adds one noise draw per sample from
// the capture's keyed stream.
func referenceKeyedAveraged(ctx context.Context, d *Device, core *cpu.CPU, words []uint32, runs int, index uint64) (cpu.Trace, []float64, error) {
	if runs < 1 {
		return nil, nil, fmt.Errorf("device: need >= 1 run (got %d)", runs)
	}
	rng := rand.New(rand.NewSource(programNoiseSeed(d.opts.NoiseSeed, words, index)))
	var tr cpu.Trace
	var acc []float64
	for r := 0; r < runs; r++ {
		if err := ctx.Err(); err != nil {
			return nil, nil, err
		}
		t, err := core.RunProgram(words)
		if err != nil {
			return nil, nil, fmt.Errorf("device: %w", err)
		}
		y := referenceEmit(d, t)
		if acc == nil {
			acc = make([]float64, len(y))
			tr = t
		} else if len(y) != len(acc) {
			return nil, nil, fmt.Errorf("device: nondeterministic run length (%d vs %d samples)", len(y), len(acc))
		}
		for i, v := range y {
			acc[i] += v + float64(d.opts.NoiseStd*rng.NormFloat64())
		}
	}
	inv := 1 / float64(runs)
	for i := range acc {
		acc[i] *= inv
	}
	return tr, acc, nil
}

// averagingProgram generates a terminating program with data traffic:
// s0 points at a data region far from the code, so loads and stores
// (some in a second, cache-missing region) never touch the program
// image. ALU ops, MULs and forward-only branches fill the rest.
func averagingProgram(t *testing.T, seed int64) []uint32 {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	regs := [...]isa.Reg{isa.T0, isa.T1, isa.T2, isa.A0, isa.A1, isa.A2}
	reg := func() isa.Reg { return regs[rng.Intn(len(regs))] }
	var insts []isa.Inst
	insts = append(insts, isa.Li(isa.S0, 0x2000)...)
	insts = append(insts, isa.Li(isa.S1, 0x42000)...)
	for _, r := range regs {
		insts = append(insts, isa.Li(r, rng.Int31())...)
	}
	const body = 60
	for i := 0; i < body; i++ {
		base := isa.S0
		if rng.Intn(4) == 0 {
			base = isa.S1
		}
		off := int32(rng.Intn(16)) * 4
		switch rng.Intn(7) {
		case 0:
			insts = append(insts, isa.Add(reg(), reg(), reg()))
		case 1:
			insts = append(insts, isa.Xor(reg(), reg(), reg()))
		case 2:
			insts = append(insts, isa.Mul(reg(), reg(), reg()))
		case 3:
			insts = append(insts, isa.Addi(reg(), reg(), rng.Int31n(2048)))
		case 4:
			insts = append(insts, isa.Lw(reg(), base, off))
		case 5:
			insts = append(insts, isa.Sw(reg(), base, off))
		case 6:
			// Short and forward-only, so most of the body runs and the
			// program always reaches the EBREAK.
			skip := 1 + rng.Intn(min(3, body-i))
			insts = append(insts, isa.Bne(reg(), reg(), int32(skip)*4))
		}
	}
	insts = append(insts, isa.Ebreak())
	return words(t, insts...)
}

// TestMeasureAveragedMatchesRerun holds the capture procedure, which
// streams one simulation into the emission and averages keyed noise
// over it, to the trace-materializing per-run loop it replaced:
// bit-equal samples and equal cycle counts, at the index MeasureAveraged
// uses and at a later CaptureSource index, over a sequence of
// measurements sharing one device.
func TestMeasureAveragedMatchesRerun(t *testing.T) {
	defective := DefaultOptions()
	defective.ClockPPM = 300
	defective.CPU.BuggyMul = true
	noiseless := DefaultOptions()
	noiseless.NoiseStd = 0
	devices := []struct {
		name string
		opts Options
	}{
		{"default", DefaultOptions()},
		{"clock-trimmed buggy-mul", defective},
		{"noiseless", noiseless},
	}
	var programs [][]uint32
	for seed := int64(1); seed <= 3; seed++ {
		programs = append(programs, averagingProgram(t, seed))
	}
	ctx := context.Background()
	for _, dc := range devices {
		t.Run(dc.name, func(t *testing.T) {
			d := MustNew(dc.opts)
			ref := cpu.MustNew(dc.opts.CPU)
			spc := dc.opts.SamplesPerCycle
			for pi, words := range programs {
				for _, runs := range []int{1, 3, 30} {
					for _, index := range []uint64{0, 7} {
						name := fmt.Sprintf("program %d, %d runs, capture %d", pi, runs, index)
						wantTr, wantY, err := referenceKeyedAveraged(ctx, d, ref, words, runs, index)
						if err != nil {
							t.Fatalf("%s: reference: %v", name, err)
						}
						var y []float64
						if index == 0 {
							y, err = d.MeasureAveraged(words, runs)
						} else {
							y, err = d.capture(ctx, words, runs, index)
						}
						if err != nil {
							t.Fatalf("%s: %v", name, err)
						}
						checkSameCapture(t, name, y, spc, wantTr, wantY)
					}
				}
			}
			if st := ref.Stats(); st.CacheMisses == 0 || st.Retired == 0 {
				t.Errorf("programs exercised too little: %+v", st)
			}
		})
	}
}

// checkSameCapture requires y to equal the reference capture bit for
// bit and to hold spc samples per cycle of the reference trace.
func checkSameCapture(t *testing.T, name string, y []float64, spc int, wantTr cpu.Trace, wantY []float64) {
	t.Helper()
	if len(y) != len(wantY) {
		t.Fatalf("%s: %d samples, reference %d", name, len(y), len(wantY))
	}
	for i := range y {
		if math.Float64bits(y[i]) != math.Float64bits(wantY[i]) {
			t.Fatalf("%s: sample %d = %v, reference %v", name, i, y[i], wantY[i])
		}
	}
	if len(y)%spc != 0 || len(y)/spc != len(wantTr) {
		t.Fatalf("%s: %d samples at %d per cycle, reference trace has %d cycles", name, len(y), spc, len(wantTr))
	}
}

func TestMeasureAveragedCancelled(t *testing.T) {
	d := MustNew(DefaultOptions())
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := d.MeasureAveragedContext(ctx, nopProgram(t, 4), 3); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled MeasureAveragedContext = %v, want context.Canceled", err)
	}
	if _, err := d.MeasureAveragedContext(context.Background(), nopProgram(t, 4), 0); err == nil {
		t.Fatal("zero runs accepted")
	}
}

// sameBits reports whether a and b hold the same samples bit for bit.
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

// TestCaptureIndependentOfHistory requires a capture to be the same
// whether it is the device's first or follows other captures, of other
// programs and of the same one.
func TestCaptureIndependentOfHistory(t *testing.T) {
	prog, other := nopProgram(t, 20), averagingProgram(t, 1)
	first, err := MustNew(DefaultOptions()).MeasureAveraged(prog, 3)
	if err != nil {
		t.Fatal(err)
	}
	d := MustNew(DefaultOptions())
	for _, w := range [][]uint32{other, prog, other} {
		if _, err := d.MeasureAveraged(w, 2); err != nil {
			t.Fatal(err)
		}
	}
	later, err := d.MeasureAveraged(prog, 3)
	if err != nil {
		t.Fatal(err)
	}
	if !sameBits(first, later) {
		t.Fatal("a capture changed with the captures made before it")
	}
}

// TestCaptureSourceNumbersCaptures requires CaptureSource's n-th call to
// return the keyed single-run capture n of its input, on a device that
// has measured before, and repeated captures of one input to draw fresh
// noise: they differ on a noisy device and agree on a noiseless one.
func TestCaptureSourceNumbersCaptures(t *testing.T) {
	progs := map[byte][]uint32{0: nopProgram(t, 12), 1: averagingProgram(t, 2)}
	build := func(input [16]byte) ([]uint32, error) { return progs[input[0]], nil }
	inputs := []byte{0, 1, 0, 0}
	noiseless := DefaultOptions()
	noiseless.NoiseStd = 0
	for _, opts := range []Options{DefaultOptions(), noiseless} {
		d := MustNew(opts)
		if _, err := d.MeasureAveraged(progs[1], 4); err != nil {
			t.Fatal(err)
		}
		src := d.CaptureSource(build)
		var got [][]float64
		for n, in := range inputs {
			y, err := src([16]byte{in})
			if err != nil {
				t.Fatal(err)
			}
			want, err := MustNew(opts).capture(context.Background(), progs[in], 1, uint64(n))
			if err != nil {
				t.Fatal(err)
			}
			if !sameBits(y, want) {
				t.Fatalf("NoiseStd %g: call %d is not capture %d of its input", opts.NoiseStd, n, n)
			}
			got = append(got, y)
		}
		if repeated := sameBits(got[2], got[3]); repeated != (opts.NoiseStd == 0) {
			t.Errorf("NoiseStd %g: two captures of one input equal = %v", opts.NoiseStd, repeated)
		}
	}
}

// TestMeasureAveragedContextConcurrent measures several programs at
// once on one Device and requires the captures it returned measuring
// them one at a time.
func TestMeasureAveragedContextConcurrent(t *testing.T) {
	d := MustNew(DefaultOptions())
	ctx := context.Background()
	var programs [][]uint32
	for seed := int64(1); seed <= 4; seed++ {
		programs = append(programs, averagingProgram(t, seed))
	}
	want := make([][]float64, len(programs))
	for i, w := range programs {
		y, err := d.MeasureAveragedContext(ctx, w, 3)
		if err != nil {
			t.Fatal(err)
		}
		want[i] = y
	}
	const rounds = 3
	got := make([][]float64, rounds*len(programs))
	errs := make([]error, len(got))
	var wg sync.WaitGroup
	for k := range got {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got[k], errs[k] = d.MeasureAveragedContext(ctx, programs[k%len(programs)], 3)
		}()
	}
	wg.Wait()
	for k, y := range got {
		if errs[k] != nil {
			t.Fatal(errs[k])
		}
		if !sameBits(y, want[k%len(programs)]) {
			t.Fatalf("concurrent capture %d of program %d differs from the sequential one", k, k%len(programs))
		}
	}
}

// TestProgramNoiseSeed pins the per-program noise seed to the value the
// device drew before the seed was built on par.HashWords and par.Mix,
// so every index-0 capture, and with it every trained model, keeps its
// noise.
func TestProgramNoiseSeed(t *testing.T) {
	if got, want := programNoiseSeed(1, []uint32{0x13, 0x100073}, 0), int64(3639400488017616310); got != want {
		t.Fatalf("programNoiseSeed = %d, want %d", got, want)
	}
}
