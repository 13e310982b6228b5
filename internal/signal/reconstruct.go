package signal

// Reconstructor is a reusable streaming renderer for the overlap-add
// reconstruction of Equ. 2/4/6. It caches the kernel tap table once and
// consumes per-cycle amplitudes one at a time (or chunk by chunk), so the
// producer never has to materialize the full amplitude series and a
// steady-state reuse cycle performs no allocations:
//
//	r, _ := k.NewReconstructor(spc)
//	var sig []float64
//	for _, trace := range traces {
//		r.Start(sig)            // reuse the previous buffer
//		for _, amp := range ... // stream amplitudes as they are computed
//			r.Add(amp)
//		sig = r.Finish()
//	}
//
// A Reconstructor is not safe for concurrent use; give each worker its
// own (a Session does exactly that).
type Reconstructor struct {
	taps []float64
	spc  int

	out    []float64
	cycles int
}

// NewReconstructor builds a streaming reconstructor for the kernel at the
// given analog rate, sampling the tap table once.
func (k Kernel) NewReconstructor(samplesPerCycle int) (*Reconstructor, error) {
	taps, err := k.Taps(samplesPerCycle)
	if err != nil {
		return nil, err
	}
	return &Reconstructor{taps: taps, spc: samplesPerCycle}, nil
}

// Start begins a new signal, rendering into dst's backing array (grown
// only when needed). Pass the previous Finish result to reuse its
// capacity, or nil to allocate fresh.
//
//emsim:noalloc
func (r *Reconstructor) Start(dst []float64) {
	r.out = dst[:0]
	r.cycles = 0
}

// extend grows the output to n samples, zeroing any newly exposed region.
//
//emsim:noalloc
func (r *Reconstructor) extend(n int) {
	if n <= len(r.out) {
		return
	}
	old := len(r.out)
	if n <= cap(r.out) {
		r.out = r.out[:n]
		for i := old; i < n; i++ {
			r.out[i] = 0
		}
	} else {
		//emsim:ignore noalloc amortized warm-up growth; a steady-state reuse cycle never reaches this branch
		grown := make([]float64, n, n+n/2)
		copy(grown, r.out)
		r.out = grown
	}
}

// Add superposes one cycle's kernel instance, scaled by amp, at the next
// cycle position. The tail reaching past the final cycle is trimmed by
// Finish.
//
//emsim:noalloc
func (r *Reconstructor) Add(amp float64) {
	base := r.cycles * r.spc
	r.extend(base + len(r.taps))
	//emsim:ignore floatcmp skipping exactly-zero amplitudes is a pure optimization; near-zero cycles still render
	if amp != 0 {
		out := r.out[base:]
		for i, tap := range r.taps {
			out[i] += float64(amp * tap)
		}
	}
	r.cycles++
}

// AddChunk streams a block of per-cycle amplitudes.
//
//emsim:noalloc
func (r *Reconstructor) AddChunk(amps []float64) {
	for _, a := range amps {
		r.Add(a)
	}
}

// Cycles returns the number of amplitudes consumed since Start.
func (r *Reconstructor) Cycles() int { return r.cycles }

// Finish truncates the kernel tail beyond the last cycle and returns the
// rendered signal: cycles×samplesPerCycle samples. The returned slice
// aliases the reconstructor's buffer only until the next Start that
// reuses it.
//
//emsim:noalloc
func (r *Reconstructor) Finish() []float64 {
	n := r.cycles * r.spc
	r.extend(n)
	r.out = r.out[:n]
	return r.out
}
