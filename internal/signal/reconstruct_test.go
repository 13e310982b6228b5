package signal

import (
	"math/rand"
	"testing"
)

// kernelsUnderTest covers all three Figure 1 pulse shapes plus a support
// longer than one cycle so the overlap-add tail actually overlaps.
func kernelsUnderTest() []Kernel {
	return []Kernel{
		{Kind: KernelRect, SupportCycles: 1},
		{Kind: KernelExp, Theta: 3, SupportCycles: 2},
		DefaultKernel(),
		{Kind: KernelSinExp, Theta: 2, Period: 0.5, SupportCycles: 4},
	}
}

func randAmps(r *rand.Rand, n int) []float64 {
	x := make([]float64, n)
	for i := range x {
		x[i] = r.NormFloat64()
	}
	// Sprinkle exact zeros: the renderer and the reference both skip them.
	for i := 0; i < n/8; i++ {
		x[r.Intn(n)] = 0
	}
	return x
}

// TestReconstructorMatchesReconstruct pins the streaming renderer — one
// amplitude at a time, chunk by chunk, and the one-shot Reconstruct built
// on it — to the naive overlap-add reference, bit for bit, including
// buffer reuse across differently sized inputs.
func TestReconstructorMatchesReconstruct(t *testing.T) {
	r := rand.New(rand.NewSource(11))
	for _, k := range kernelsUnderTest() {
		rec, err := k.NewReconstructor(8)
		if err != nil {
			t.Fatal(err)
		}
		taps, err := k.Taps(8)
		if err != nil {
			t.Fatal(err)
		}
		var sig []float64
		for _, n := range []int{1, 5, 64, 17} { // shrinking size reuses capacity
			x := randAmps(r, n)
			want := naiveOverlapAdd(x, taps, 8)

			once, err := Reconstruct(x, 8, k)
			if err != nil {
				t.Fatal(err)
			}
			assertBitEqual(t, k, n, "Reconstruct", once, want)

			rec.Start(sig)
			for _, a := range x {
				rec.Add(a)
			}
			if rec.Cycles() != n {
				t.Fatalf("Cycles() = %d, want %d", rec.Cycles(), n)
			}
			sig = rec.Finish()
			assertBitEqual(t, k, n, "Add", sig, want)

			rec.Start(sig)
			rec.AddChunk(x[:n/2])
			rec.AddChunk(x[n/2:])
			sig = rec.Finish()
			assertBitEqual(t, k, n, "AddChunk", sig, want)
		}
	}
}

func assertBitEqual(t *testing.T, k Kernel, n int, path string, got, want []float64) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("kernel %v n=%d %s: got %d samples, want %d", k.Kind, n, path, len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("kernel %v n=%d %s: sample %d = %g, want %g (bit-exact)", k.Kind, n, path, i, got[i], want[i])
		}
	}
}

func TestReconstructorErrors(t *testing.T) {
	if _, err := (Kernel{Kind: KernelExp}).NewReconstructor(8); err == nil {
		t.Error("invalid kernel accepted")
	}
	if _, err := DefaultKernel().NewReconstructor(0); err == nil {
		t.Error("zero rate accepted")
	}
}

// TestReconstructorSteadyStateAllocs pins the zero-allocation property of
// a warm streaming rerun — the reason Session can simulate thousands of
// traces without garbage.
func TestReconstructorSteadyStateAllocs(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	x := randAmps(r, 128)
	rec, err := DefaultKernel().NewReconstructor(16)
	if err != nil {
		t.Fatal(err)
	}
	rec.Start(nil)
	rec.AddChunk(x)
	sig := rec.Finish()

	allocs := testing.AllocsPerRun(20, func() {
		rec.Start(sig)
		rec.AddChunk(x)
		sig = rec.Finish()
	})
	if allocs > 0 {
		t.Errorf("steady-state reconstruction allocates %.1f times per trace, want 0", allocs)
	}

	// The per-cycle Add path (the form the streaming sink uses) must be
	// just as clean as the chunked one.
	allocs = testing.AllocsPerRun(20, func() {
		rec.Start(sig)
		for _, amp := range x {
			rec.Add(amp)
		}
		sig = rec.Finish()
	})
	if allocs > 0 {
		t.Errorf("steady-state per-amp reconstruction allocates %.1f times per trace, want 0", allocs)
	}
}
