package signal

import (
	"encoding/binary"
	"math"
	"testing"
)

// fuzzKernels are the kernel configurations the overlap-add fuzz target
// cycles through: every kind, support both shorter and longer than one
// cycle, so the tap tail both overlaps following cycles and gets
// truncated at the signal end.
var fuzzKernels = []Kernel{
	{Kind: KernelRect, SupportCycles: 1},
	{Kind: KernelExp, Theta: 4, SupportCycles: 2},
	{Kind: KernelSinExp, Theta: 4, Period: 0.25, SupportCycles: 3},
	DefaultKernel(),
}

// naiveOverlapAdd is the textbook reference for Equ. 2/4/6: a fresh
// output buffer, one kernel instance per cycle, scaled and superposed,
// tail truncated at cycles*spc. Additions run in the same cycle-major,
// tap-minor order as the Reconstructor, so agreement is required bit for
// bit, not merely within epsilon.
func naiveOverlapAdd(amps []float64, taps []float64, spc int) []float64 {
	n := len(amps) * spc
	out := make([]float64, n)
	for c, amp := range amps {
		if amp == 0 {
			continue
		}
		for i, tap := range taps {
			idx := c*spc + i
			if idx >= n {
				break
			}
			out[idx] += amp * tap
		}
	}
	return out
}

// FuzzReconstructorOverlapAdd drives the in-place streaming
// Reconstructor (and the one-shot Reconstruct built on it) with
// arbitrary amplitude series — including NaN, infinities, subnormals and
// signed zeros — and demands bit-exact equivalence with the naive
// reference, on a fresh buffer and again on a reused one.
func FuzzReconstructorOverlapAdd(f *testing.F) {
	f.Add([]byte{}, uint8(4), uint8(0))
	f.Add([]byte{0, 0, 0, 0, 0, 0, 240, 63, 1, 2, 3, 4, 5, 6, 7, 8}, uint8(1), uint8(1))
	f.Add(binary.LittleEndian.AppendUint64(nil, math.Float64bits(math.NaN())), uint8(7), uint8(2))
	f.Add(binary.LittleEndian.AppendUint64(
		binary.LittleEndian.AppendUint64(nil, math.Float64bits(math.Inf(1))),
		math.Float64bits(-0.0)), uint8(16), uint8(3))

	f.Fuzz(func(t *testing.T, data []byte, spcRaw, kindRaw uint8) {
		spc := int(spcRaw)%16 + 1
		k := fuzzKernels[int(kindRaw)%len(fuzzKernels)]
		amps := make([]float64, 0, len(data)/8)
		for len(data) >= 8 && len(amps) < 256 {
			amps = append(amps, math.Float64frombits(binary.LittleEndian.Uint64(data[:8])))
			data = data[8:]
		}

		want := MustReconstruct(amps, spc, k)
		taps, err := k.Taps(spc)
		if err != nil {
			t.Fatalf("taps: %v", err)
		}
		naive := naiveOverlapAdd(amps, taps, spc)
		requireBitEqual(t, "Reconstruct vs naive", naive, want)

		r, err := k.NewReconstructor(spc)
		if err != nil {
			t.Fatalf("reconstructor: %v", err)
		}
		var sig []float64
		for pass := 0; pass < 2; pass++ {
			// Pass 0 renders into a fresh buffer; pass 1 reuses it, which
			// must re-zero every sample the previous pass wrote.
			r.Start(sig)
			for _, a := range amps {
				r.Add(a)
			}
			sig = r.Finish()
			if r.Cycles() != len(amps) {
				t.Fatalf("pass %d: consumed %d cycles, want %d", pass, r.Cycles(), len(amps))
			}
			requireBitEqual(t, "streaming vs naive", naive, sig)
		}

		// Chunked streaming must match sample-at-a-time streaming.
		r.Start(sig)
		r.AddChunk(amps)
		requireBitEqual(t, "AddChunk vs naive", naive, r.Finish())
	})
}

func requireBitEqual(t *testing.T, what string, want, got []float64) {
	t.Helper()
	if len(want) != len(got) {
		t.Fatalf("%s: %d samples, want %d", what, len(got), len(want))
	}
	for i := range want {
		if math.Float64bits(want[i]) != math.Float64bits(got[i]) {
			t.Fatalf("%s: sample %d = %x (%g), want %x (%g)",
				what, i, math.Float64bits(got[i]), got[i], math.Float64bits(want[i]), want[i])
		}
	}
}
