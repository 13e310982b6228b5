package defend

import "emsim/internal/par"

// Randomization plumbing. Every random decision a countermeasure or the
// evaluation harness makes is drawn from a stream keyed by (campaign
// seed, lane, index) — par.Stream, as the Trainer's streams — so a given
// trace's randomization is a pure function of its identity, not of which
// worker simulated it or in what order. That is what makes defended
// campaigns byte-identical at any worker count.

// lane separates the independent random streams of one campaign.
type lane uint64

const (
	laneArm   lane = 1 + iota // per-trace countermeasure randomization
	lanePlain                 // CPA plaintext generation
	laneNoise                 // per-trace measurement noise
	laneTVLA                  // TVLA random-group plaintexts
	lanePart                  // derives per-campaign-part session seeds
)

// stream is par.Stream keyed by one of the campaign's lanes.
func stream(seed int64, l lane, index int64) uint64 {
	return par.Stream(seed, uint64(l), uint64(index))
}

// prng is a splitmix64 generator small enough to live inside
// //emsim:noalloc hot paths: plain integer arithmetic, no stdlib calls,
// no heap state.
type prng struct{ state uint64 }

func newPRNG(seed uint64) prng { return prng{state: seed} }

// next returns the next 64-bit output.
//
//emsim:noalloc
func (p *prng) next() uint64 {
	p.state += 0x9E3779B97F4A7C15
	return par.Mix(p.state)
}

// intn returns a value in [0, n). The modulo bias is negligible for the
// tiny n used here (window sizes, register counts).
//
//emsim:noalloc
func (p *prng) intn(n int) int { return int(p.next() % uint64(n)) }
