package main

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"

	"emsim/internal/core"
	"emsim/internal/device"
)

// setupRepeats is how many times a run sets up before timing starts.
const setupRepeats = 3

// heldoutRuns is the capture-averaging depth of the held-out comparison,
// the trainer's default.
const heldoutRuns = 30

// modelPath is the pinned model the defend and serve workloads load, so a
// change to training never alters their inputs.
func modelPath(root string) string {
	return filepath.Join(root, "testdata", "golden", "model.json")
}

// setupTimer times a workload's set-up. A run sets up setupRepeats times
// before timing, keeping the last, and once more after every timed
// operation or segment. setup_s is the median of all of them, so it
// spans the same stretch of a noisy host as the end-to-end figures
// rather than one moment of it.
type setupTimer[T any] struct {
	setup   func() (T, error)
	release func(T) // frees a set-up the run does not keep; may be nil
	secs    []float64
}

func (s *setupTimer[T]) run() (T, error) {
	t0 := time.Now()
	v, err := s.setup()
	s.secs = append(s.secs, time.Since(t0).Seconds())
	if err != nil {
		return v, fmt.Errorf("set-up: %w", err)
	}
	return v, nil
}

// again sets up once more and releases the result.
func (s *setupTimer[T]) again() error {
	v, err := s.run()
	if err == nil && s.release != nil {
		s.release(v)
	}
	return err
}

// first sets up setupRepeats times and returns the last set-up.
func (s *setupTimer[T]) first() (T, error) {
	for i := 1; i < setupRepeats; i++ {
		if err := s.again(); err != nil {
			var zero T
			return zero, err
		}
	}
	return s.run()
}

func (s *setupTimer[T]) median() float64 { return median(s.secs) }

// quantile returns the q-quantile of xs by linear interpolation between
// order statistics (xs is sorted in place).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	pos := q * float64(len(xs)-1)
	i := int(pos)
	if i+1 >= len(xs) {
		return xs[len(xs)-1]
	}
	return xs[i] + (pos-float64(i))*(xs[i+1]-xs[i])
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

func sum(xs []float64) float64 {
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }

// logOps prints a run's per-operation times to standard error, so a
// noisy host shows in the log.
func logOps(walls []float64) {
	s := make([]string, len(walls))
	for i, w := range walls {
		s[i] = strconv.FormatFloat(w, 'f', 1, 64)
	}
	fmt.Fprintf(os.Stderr, "# op_ms %s\n", strings.Join(s, " "))
}

// allocatedBytes is the process's cumulative heap allocation.
func allocatedBytes() uint64 {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m.TotalAlloc
}

// peakRSSMB is the process's peak resident set (VmHWM) in MB, falling back
// to the Go runtime's reserved memory where /proc is unavailable.
func peakRSSMB() float64 {
	if b, err := os.ReadFile("/proc/self/status"); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
				if f := strings.Fields(rest); len(f) > 0 {
					if kb, err := strconv.ParseFloat(f[0], 64); err == nil {
						return kb / 1024
					}
				}
			}
		}
	}
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return float64(m.Sys) / (1 << 20)
}

// heldoutAccuracy is the model's mean per-cycle NCC against a fresh
// default device on held-out combination groups generated from seed. The
// trainer fits on the last two groups (core.NumGroups-1 and -2), so the
// first ones are never used in training.
func heldoutAccuracy(m *core.Model, seed int64, quick bool) (float64, error) {
	dev, err := device.New(device.DefaultOptions())
	if err != nil {
		return 0, err
	}
	runs, groups := heldoutRuns, []int{0, 1}
	if quick {
		runs, groups = 4, []int{0}
	}
	total := 0.0
	for _, g := range groups {
		words, err := core.CombinationGroup(g, rand.New(rand.NewSource(seed*131+int64(g))), false)
		if err != nil {
			return 0, err
		}
		cmp, err := m.CompareOnDevice(dev, words, runs)
		if err != nil {
			return 0, fmt.Errorf("held-out group %d: %w", g, err)
		}
		total += cmp.Accuracy
	}
	return total / float64(len(groups)), nil
}

// setCommon records the metrics every untraced run reports the same way.
// It returns the held-out accuracy for workloads that check it.
func setCommon(rep *report, setupS float64, m *core.Model, cfg config) (float64, error) {
	acc, err := heldoutAccuracy(m, cfg.seed, cfg.quick)
	if err != nil {
		return 0, err
	}
	rep.set("setup_s", setupS)
	rep.set("heldout_accuracy", acc)
	return acc, nil
}
