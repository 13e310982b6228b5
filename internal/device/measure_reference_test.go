package device

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
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

// referenceCapture is the single-capture Device.Capture the device used
// to export: one run, traced and emitted, plus one noise draw per
// sample from the device's shared RNG.
func referenceCapture(d *Device, words []uint32) (cpu.Trace, []float64, error) {
	tr, err := d.core.RunProgram(words)
	if err != nil {
		return nil, nil, fmt.Errorf("device: %w", err)
	}
	y := referenceEmit(d, tr)
	out := make([]float64, len(y))
	for i, v := range y {
		out[i] = v + d.opts.NoiseStd*d.rng.NormFloat64()
	}
	return tr, out, nil
}

// referenceDeviceAveraged is Device.MeasureAveraged as it was before the
// single-simulation loop: every averaging run re-simulates and re-emits
// the program through referenceCapture. Kept as the oracle for
// TestMeasureAveragedMatchesRerun.
func referenceDeviceAveraged(d *Device, words []uint32, runs int) (cpu.Trace, []float64, error) {
	if runs < 1 {
		return nil, nil, fmt.Errorf("device: need >= 1 run (got %d)", runs)
	}
	var tr cpu.Trace
	var acc []float64
	for r := 0; r < runs; r++ {
		t, y, err := referenceCapture(d, words)
		if err != nil {
			return nil, nil, err
		}
		if acc == nil {
			acc = make([]float64, len(y))
			tr = t
		} else if len(y) != len(acc) {
			return nil, nil, fmt.Errorf("device: nondeterministic run length (%d vs %d samples)", len(y), len(acc))
		}
		for i, v := range y {
			acc[i] += v
		}
	}
	inv := 1 / float64(runs)
	for i := range acc {
		acc[i] *= inv
	}
	return tr, acc, nil
}

// referenceMeasurerAveraged is the matching per-run loop of
// Measurer.MeasureAveraged.
func referenceMeasurerAveraged(ctx context.Context, m *Measurer, words []uint32, runs int) (cpu.Trace, []float64, error) {
	if runs < 1 {
		return nil, nil, fmt.Errorf("device: need >= 1 run (got %d)", runs)
	}
	rng := rand.New(rand.NewSource(programNoiseSeed(m.d.opts.NoiseSeed, words)))
	var tr cpu.Trace
	var acc []float64
	for r := 0; r < runs; r++ {
		if err := ctx.Err(); err != nil {
			return nil, nil, err
		}
		t, err := m.core.RunProgram(words)
		if err != nil {
			return nil, nil, fmt.Errorf("device: %w", err)
		}
		y := referenceEmit(m.d, t)
		if acc == nil {
			acc = make([]float64, len(y))
			tr = t
		} else if len(y) != len(acc) {
			return nil, nil, fmt.Errorf("device: nondeterministic run length (%d vs %d samples)", len(y), len(acc))
		}
		for i, v := range y {
			acc[i] += v + m.d.opts.NoiseStd*rng.NormFloat64()
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

// TestMeasureAveragedMatchesRerun holds both MeasureAveraged methods,
// which stream one simulation into the emission and average noise over
// it, to the trace-materializing per-run loops they replaced: bit-equal
// samples, equal cycle counts and equal core statistics, over a
// sequence of measurements sharing one device (so the Device's shared
// noise stream must also advance identically). At one run the Device
// method must also equal the old single Capture, which CaptureSource
// now relies on.
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
			got, want := MustNew(dc.opts), MustNew(dc.opts)
			gotM, err := got.NewMeasurer()
			if err != nil {
				t.Fatal(err)
			}
			wantM, err := want.NewMeasurer()
			if err != nil {
				t.Fatal(err)
			}
			spc := dc.opts.SamplesPerCycle
			for pi, words := range programs {
				for _, runs := range []int{1, 3, 30} {
					name := fmt.Sprintf("program %d, %d runs", pi, runs)
					if runs == 1 {
						y, err := MustNew(dc.opts).MeasureAveraged(words, 1)
						if err != nil {
							t.Fatalf("%s: %v", name, err)
						}
						capTr, capY, err := referenceCapture(MustNew(dc.opts), words)
						if err != nil {
							t.Fatalf("%s: reference capture: %v", name, err)
						}
						checkSameCapture(t, "Device capture "+name, y, spc, capTr, capY)
					}

					y, err := got.MeasureAveraged(words, runs)
					if err != nil {
						t.Fatalf("%s: %v", name, err)
					}
					wantTr, wantY, err := referenceDeviceAveraged(want, words, runs)
					if err != nil {
						t.Fatalf("%s: reference: %v", name, err)
					}
					checkSameCapture(t, "Device "+name, y, spc, wantTr, wantY)
					if got.CPUStats() != want.CPUStats() {
						t.Fatalf("Device %s: stats %+v, reference %+v", name, got.CPUStats(), want.CPUStats())
					}

					y, err = gotM.MeasureAveraged(ctx, words, runs)
					if err != nil {
						t.Fatalf("%s: %v", name, err)
					}
					wantTr, wantY, err = referenceMeasurerAveraged(ctx, wantM, words, runs)
					if err != nil {
						t.Fatalf("%s: reference: %v", name, err)
					}
					checkSameCapture(t, "Measurer "+name, y, spc, wantTr, wantY)
					if gotM.core.Stats() != wantM.core.Stats() {
						t.Fatalf("Measurer %s: stats %+v, reference %+v", name, gotM.core.Stats(), wantM.core.Stats())
					}
				}
			}
			if got.CPUStats().CacheMisses == 0 || got.CPUStats().Retired == 0 {
				t.Errorf("programs exercised too little: %+v", got.CPUStats())
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
	m, err := MustNew(DefaultOptions()).NewMeasurer()
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := m.MeasureAveraged(ctx, nopProgram(t, 4), 3); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled MeasureAveraged = %v, want context.Canceled", err)
	}
	if _, err := m.MeasureAveraged(context.Background(), nopProgram(t, 4), 0); err == nil {
		t.Fatal("zero runs accepted")
	}
}

// TestProgramNoiseSeed pins the per-program noise seed to the value the
// device drew before the seed was built on par.HashWords and par.Mix,
// so every Measurer capture keeps its noise.
func TestProgramNoiseSeed(t *testing.T) {
	if got, want := programNoiseSeed(1, []uint32{0x13, 0x100073}), int64(3639400488017616310); got != want {
		t.Fatalf("programNoiseSeed = %d, want %d", got, want)
	}
}
