package par

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync/atomic"
	"testing"
	"time"
)

// noState is the worker constructor for tests whose workers need no
// private state.
func noState() (struct{}, error) { return struct{}{}, nil }

func square(_ context.Context, _ struct{}, i int) (int, error) { return i * i, nil }

func TestOrderedDeliversInOrder(t *testing.T) {
	const n = 37
	for _, workers := range []int{1, 2, 4, n + 5} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			var built atomic.Int64
			newWorker := func() (int, error) { return int(built.Add(1)), nil }
			work := func(_ context.Context, _ int, i int) (int, error) { return i * i, nil }
			var got []int
			err := Ordered(context.Background(), n, workers, newWorker, work, func(i, v int) error {
				if i != len(got) {
					return fmt.Errorf("consume(%d) after %d results", i, len(got))
				}
				got = append(got, v)
				return nil
			})
			if err != nil {
				t.Fatal(err)
			}
			if len(got) != n {
				t.Fatalf("consumed %d results, want %d", len(got), n)
			}
			for i, v := range got {
				if v != i*i {
					t.Fatalf("result %d = %d, want %d", i, v, i*i)
				}
			}
			if want := int64(min(workers, n)); built.Load() != want {
				t.Errorf("built %d workers, want %d", built.Load(), want)
			}
		})
	}
}

func TestOrderedEmpty(t *testing.T) {
	newWorker := func() (struct{}, error) {
		t.Error("newWorker called for an empty run")
		return struct{}{}, nil
	}
	err := Ordered(context.Background(), 0, 4, newWorker, square, func(i, v int) error {
		t.Errorf("consume(%d) called for an empty run", i)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestOrderedLowestErrorWins fails several indices, some in work and
// some in consume. Whatever order the workers reach them in, the
// reported error must be the lowest-indexed one, and nothing past it may
// be consumed.
func TestOrderedLowestErrorWins(t *testing.T) {
	const n = 64
	cases := []struct {
		name         string
		workFail     []int
		consumeFail  []int
		want         string
		wantConsumed int // consume calls up to and including the failure
	}{
		{"work", []int{41, 17, 29}, nil, "work 17", 17},
		{"consume", nil, []int{50, 23, 31}, "consume 23", 24},
		{"work before consume", []int{12, 40}, []int{13, 20}, "work 12", 12},
		{"consume before work", []int{19, 33}, []int{11, 45}, "consume 11", 12},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			workFail := map[int]bool{}
			for _, i := range tc.workFail {
				workFail[i] = true
			}
			consumeFail := map[int]bool{}
			for _, i := range tc.consumeFail {
				consumeFail[i] = true
			}
			work := func(_ context.Context, _ struct{}, i int) (int, error) {
				// Late indices finish first, so a worker usually reaches
				// a higher failing index before the lowest one.
				time.Sleep(time.Duration(n-i) * 5 * time.Microsecond)
				if workFail[i] {
					return 0, fmt.Errorf("work %d", i)
				}
				return i, nil
			}
			for round := 0; round < 20; round++ {
				consumed := 0
				err := Ordered(context.Background(), n, 4, noState, work, func(i, _ int) error {
					consumed++
					if consumeFail[i] {
						return fmt.Errorf("consume %d", i)
					}
					return nil
				})
				if err == nil || err.Error() != tc.want {
					t.Fatalf("round %d: error %v, want %q", round, err, tc.want)
				}
				if consumed != tc.wantConsumed {
					t.Fatalf("round %d: %d consume calls, want %d", round, consumed, tc.wantConsumed)
				}
			}
		})
	}
}

func TestOrderedWorkerSetupErrorRunsNoWork(t *testing.T) {
	setupErr := errors.New("no replica")
	built := 0
	newWorker := func() (struct{}, error) {
		built++
		if built == 2 {
			return struct{}{}, setupErr
		}
		return struct{}{}, nil
	}
	var ran atomic.Int64
	work := func(_ context.Context, _ struct{}, i int) (int, error) {
		ran.Add(1)
		return 0, fmt.Errorf("work %d", i)
	}
	err := Ordered(context.Background(), 10, 4, newWorker, work, func(int, int) error { return nil })
	if !errors.Is(err, setupErr) {
		t.Fatalf("error %v, want the worker construction error", err)
	}
	if ran.Load() != 0 {
		t.Errorf("%d work calls ran after a construction failure", ran.Load())
	}
}

// TestOrderedCancellation cancels the run from inside a work call while
// the other workers block until they observe it; Ordered must return
// context.Canceled and leave no goroutine behind.
func TestOrderedCancellation(t *testing.T) {
	before := runtime.NumGoroutine()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	work := func(ctx context.Context, _ struct{}, i int) (int, error) {
		if i == 3 {
			cancel()
		}
		<-ctx.Done()
		return 0, ctx.Err()
	}
	consumed := 0
	err := Ordered(ctx, 1000, 4, noState, work, func(int, int) error {
		consumed++
		return nil
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("error %v, want context.Canceled", err)
	}
	if consumed != 0 {
		t.Errorf("consumed %d results of a cancelled run", consumed)
	}
	// Ordered joins its workers before returning; allow the runtime a
	// moment to retire the exited goroutines.
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if g := runtime.NumGoroutine(); g > before {
		t.Errorf("goroutine leak: %d before, %d after", before, g)
	}
}

// TestOrderedRunAheadBound makes consume slow and checks that no worker
// ever starts an index 2×workers or more past the consumer.
func TestOrderedRunAheadBound(t *testing.T) {
	const n, workers = 200, 3
	var consumed, worst atomic.Int64
	work := func(_ context.Context, _ struct{}, i int) (int, error) {
		lead := int64(i) - consumed.Load()
		for {
			cur := worst.Load()
			if lead <= cur || worst.CompareAndSwap(cur, lead) {
				break
			}
		}
		return i, nil
	}
	err := Ordered(context.Background(), n, workers, noState, work, func(i, _ int) error {
		time.Sleep(50 * time.Microsecond)
		consumed.Add(1)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if w := worst.Load(); w >= 2*workers {
		t.Errorf("a worker ran %d indices ahead of the consumer, bound is %d", w, 2*workers)
	} else if w < workers {
		t.Errorf("workers never ran ahead (worst lead %d): the test did not exercise the bound", w)
	}
}
