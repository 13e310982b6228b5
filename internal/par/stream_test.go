package par

import (
	"math/rand"
	"testing"
)

// TestStreamVectors pins the keyed-stream and program-hash recipes to
// values computed with the copies they replaced, so every seed derived
// from them (defend's per-trace streams and shuffle draws, the
// trainer's program streams, the device's per-program noise, the
// measurement-cache keys) stays the same.
func TestStreamVectors(t *testing.T) {
	for _, c := range []struct {
		name      string
		got, want uint64
	}{
		{"Stream(1, 3, 7)", Stream(1, 3, 7), 0xba4fa1684f7d633c},
		{"Stream(-5, 5, 2)", Stream(-5, 5, 2), 0x16bee87a5bb9e90f},
		{"HashWords(nil)", HashWords(nil), 0xcbf29ce484222325},
		{"HashWords(0x13, 0x100073)", HashWords([]uint32{0x13, 0x100073}), 0x1600a65e7cc18945},
	} {
		if c.got != c.want {
			t.Errorf("%s = %#x, want %#x", c.name, c.got, c.want)
		}
	}

	// A splitmix64 generator steps its state by the golden-ratio
	// increment and returns Mix of the new state.
	state := Stream(1, 1, 0)
	for i, want := range []uint64{0xe4b7a8fb1c874a28, 0x9976a20377b0b6b0} {
		state += 0x9E3779B97F4A7C15
		if got := Mix(state); got != want {
			t.Errorf("splitmix64 output %d = %#x, want %#x", i, got, want)
		}
	}

	// The trainer seeds math/rand with a stream.
	if got, want := rand.New(rand.NewSource(int64(Stream(1, 2, 3)))).Int63(), int64(120835233887803062); got != want {
		t.Errorf("first Int63 of stream (1, 2, 3) = %d, want %d", got, want)
	}
}
