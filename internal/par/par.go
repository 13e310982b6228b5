// Package par holds the two halves of the determinism contract (DESIGN
// §11). Ordered is the one ordered fan-out: it spreads indexed work
// across a fixed set of goroutines and hands the results back in index
// order, so a reduction over them is byte-identical at any worker
// count. Batch simulation, the trainer's measurement campaign and the
// defense evaluator's trace stream all run on it. Stream, Mix and
// HashWords are the one recipe for keyed random streams and program
// hashes.
package par

import (
	"context"
	"runtime"
	"sync"
	"sync/atomic"
)

// Ordered computes work(ctx, w, i) for every i in [0, n) on up to
// `workers` goroutines (workers <= 0 selects GOMAXPROCS; the count is
// clamped to n) and calls consume(i, v) with each result on the
// caller's goroutine, in strictly ascending i.
//
// Every worker's private state w comes from newWorker, called once per
// worker on the caller's goroutine before any work starts; the first
// construction error is returned as is, with no work run.
//
// Workers claim indices from a shared counter, but never more than
// 2×workers indices past the lowest one not yet consumed, so at most
// that many results are resident however slow consume is.
//
// Ordered returns ctx.Err() when ctx is cancelled before it returns;
// otherwise the lowest-indexed failure from work or consume, or nil.
// After a failure it cancels the context it hands to work, so in-flight
// work aborts early, and it consumes nothing more. Every goroutine it
// started has exited when it returns. work runs concurrently with
// itself and with consume; only consume is serialized.
//
//emsim:ordered
func Ordered[W, V any](ctx context.Context, n, workers int,
	newWorker func() (W, error),
	work func(ctx context.Context, w W, i int) (V, error),
	consume func(i int, v V) error,
) error {
	if n == 0 {
		return nil
	}
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	workers = min(workers, n)
	states := make([]W, workers)
	for k := range states {
		w, err := newWorker()
		if err != nil {
			return err
		}
		states[k] = w
	}

	runCtx, cancel := context.WithCancel(ctx)
	defer cancel()
	type result struct {
		v   V
		err error
	}
	// Index i is delivered on slots[i%window]. A worker holds one token
	// from before it claims an index until that index is consumed, so
	// claimed-but-unconsumed indices never exceed window: a slot is
	// always empty when its next index is delivered, and no send blocks.
	window := 2 * workers
	slots := make([]chan result, window)
	for k := range slots {
		slots[k] = make(chan result, 1)
	}
	tokens := make(chan struct{}, window)
	var next atomic.Int64
	var wg sync.WaitGroup
	wg.Add(workers)
	for _, w := range states {
		go func(w W) {
			defer wg.Done()
			for {
				tokens <- struct{}{}
				i := int(next.Add(1) - 1)
				if i >= n {
					return // this token is never released; at most one per worker
				}
				// Every claimed index delivers a result, so the consumer
				// never waits for one that will not come; after a
				// cancellation the result is the context error, at once.
				r := result{err: runCtx.Err()}
				if r.err == nil {
					r.v, r.err = work(runCtx, w, i)
				}
				slots[i%window] <- r
			}
		}(w)
	}

	var firstErr error
	for i := 0; i < n; i++ {
		r := <-slots[i%window]
		if firstErr == nil {
			if r.err == nil {
				r.err = consume(i, r.v)
			}
			if r.err != nil {
				firstErr = r.err
				cancel()
			}
		}
		<-tokens
	}
	wg.Wait()
	if err := ctx.Err(); err != nil {
		return err
	}
	return firstErr
}
