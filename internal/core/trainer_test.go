package core

import (
	"bytes"
	"context"
	"errors"
	"math/rand"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"emsim/internal/cpu"
	"emsim/internal/device"
)

// Tests for the staged Trainer: worker-count equivalence (the
// determinism contract), cancellation behaviour, progress reporting, and
// the measurement cache.

// trainWith trains one model on a fresh default device and returns its
// serialized bytes plus the progress events observed. The callback is
// locked because worker goroutines invoke it concurrently.
func trainWith(t *testing.T, opts TrainOptions) ([]byte, []Progress) {
	t.Helper()
	var (
		mu     sync.Mutex
		events []Progress
	)
	opts.Progress = func(p Progress) {
		mu.Lock()
		events = append(events, p)
		mu.Unlock()
	}
	dev := device.MustNew(device.DefaultOptions())
	tr, err := NewTrainer(dev, opts)
	if err != nil {
		t.Fatal(err)
	}
	m, err := tr.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := m.Save(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes(), events
}

func TestTrainerWorkerCountEquivalence(t *testing.T) {
	// The determinism contract: the serialized model must be
	// byte-identical whether measurements run inline (Workers: 1), on a
	// small pool, or at full GOMAXPROCS fan-out (core.Train's default).
	opts := smallCampaign()

	opts.Workers = 1
	seq, events := trainWith(t, opts)

	opts.Workers = 3
	pool, _ := trainWith(t, opts)
	if !bytes.Equal(seq, pool) {
		t.Errorf("3-worker training differs from sequential (%d vs %d bytes)", len(pool), len(seq))
	}

	opts.Workers = 0 // GOMAXPROCS, the Train() default
	wide, _ := trainWith(t, opts)
	if !bytes.Equal(seq, wide) {
		t.Errorf("GOMAXPROCS training differs from sequential (%d vs %d bytes)", len(wide), len(seq))
	}

	// The progress stream from the sequential run must announce every
	// phase in DAG order and count each one monotonically to completion.
	if len(events) == 0 {
		t.Fatal("no progress events")
	}
	seen := make([]bool, NumPhases)
	phase, done := Phase(-1), 0
	for _, e := range events {
		if e.Phase < phase {
			t.Fatalf("phase %v reported after %v", e.Phase, phase)
		}
		if e.Phase > phase {
			if e.Done != 0 {
				t.Fatalf("phase %v did not announce itself with Done=0 (got %d)", e.Phase, e.Done)
			}
			phase, done = e.Phase, 0
			seen[e.Phase] = true
			continue
		}
		if e.Done != done+1 {
			t.Fatalf("phase %v progress jumped from %d to %d", e.Phase, done, e.Done)
		}
		done = e.Done
		if e.Done > e.Total {
			t.Fatalf("phase %v overran: %d/%d", e.Phase, e.Done, e.Total)
		}
	}
	for p, ok := range seen {
		if !ok {
			t.Errorf("phase %v never reported", Phase(p))
		}
	}
}

func TestTrainerCancellation(t *testing.T) {
	before := runtime.NumGoroutine()

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	opts := smallCampaign()
	opts.Workers = 4
	// Cancel from inside the campaign, two measurements into phase 1 —
	// mid-fan-out, with workers in flight. The callback is invoked
	// concurrently, so its state carries its own lock.
	var (
		phaseMu   sync.Mutex
		lastPhase Phase
	)
	opts.Progress = func(p Progress) {
		phaseMu.Lock()
		if p.Phase > lastPhase {
			lastPhase = p.Phase
		}
		phaseMu.Unlock()
		if p.Phase == PhaseBaseline && p.Done >= 2 {
			cancel()
		}
	}
	dev := device.MustNew(device.DefaultOptions())
	tr, err := NewTrainer(dev, opts)
	if err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	m, err := tr.Run(ctx)
	if m != nil || !errors.Is(err, context.Canceled) {
		t.Fatalf("Run after cancel = (%v, %v), want (nil, context.Canceled)", m, err)
	}
	// Generous bound; the point is "promptly", not "instantly" — latency
	// is one simulation plus one noise pass per in-flight worker.
	if d := time.Since(start); d > 30*time.Second {
		t.Errorf("cancelled Run took %v", d)
	}
	if lastPhase > PhaseBaseline {
		t.Errorf("campaign advanced to %v after cancellation", lastPhase)
	}

	// Every worker goroutine must have exited by the time Run returns
	// (allow a moment for runtime bookkeeping).
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if g := runtime.NumGoroutine(); g > before {
		t.Errorf("goroutine leak: %d before Run, %d after", before, g)
	}
}

func TestTrainerProgressReentrancy(t *testing.T) {
	// The Progress contract allows the callback to call back into the
	// Trainer. Before the callbacks moved outside the trainer's internal
	// mutex, a callback touching PhaseTimings deadlocked on the first
	// event; the timeout below is the regression guard.
	opts := smallCampaign()
	opts.Workers = 2
	dev := device.MustNew(device.DefaultOptions())
	var tr *Trainer
	opts.Progress = func(Progress) { _ = tr.PhaseTimings() }
	tr, err := NewTrainer(dev, opts)
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() {
		_, err := tr.Run(context.Background())
		done <- err
	}()
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(2 * time.Minute):
		t.Fatal("Run never returned: a progress callback calling PhaseTimings deadlocks against the trainer lock")
	}
}

func TestMeasurementCacheReuse(t *testing.T) {
	cache := NewMeasurementCache()
	opts := smallCampaign()
	opts.Cache = cache

	first, _ := trainWith(t, opts)
	after1 := cache.Stats()
	// Every entry comes from one miss. (Hits can occur within a single
	// campaign: the all-NOP program is measured by both phase 0 and
	// phase 1, and the cache dedupes it.)
	if after1.Entries == 0 || after1.Misses != int64(after1.Entries) {
		t.Fatalf("first training: stats %+v, want entries > 0, one miss per entry", after1)
	}

	// A retraining with the same options against an identically
	// configured device must be served entirely from the cache and fit
	// the identical model.
	second, _ := trainWith(t, opts)
	after2 := cache.Stats()
	if after2.Misses != after1.Misses {
		t.Errorf("second training missed the cache %d times", after2.Misses-after1.Misses)
	}
	if after2.Hits == 0 {
		t.Error("second training recorded no cache hits")
	}
	if !bytes.Equal(first, second) {
		t.Error("cached retraining produced a different model")
	}

	// A differently configured device must not share artifacts.
	devOpts := device.DefaultOptions()
	devOpts.NoiseSeed++
	if device.MustNew(device.DefaultOptions()).Fingerprint() == device.MustNew(devOpts).Fingerprint() {
		t.Error("distinct device configurations share a fingerprint")
	}
}

// TestReplayChecksTiming feeds replay amplitudes one cycle short of and
// one cycle past the model core's run. Both must fail the timing check
// (which also guards cache hits, as replay runs on every fit); an exact
// match must hand every cycle to the fit once, in order, with its own
// amplitude.
func TestReplayChecksTiming(t *testing.T) {
	core := cpu.MustNew(cpu.DefaultConfig())
	words := allNOPProgram(16)
	tr, err := core.RunProgram(words)
	if err != nil {
		t.Fatal(err)
	}
	n := len(tr)
	for _, cycles := range []int{n - 1, n + 1} {
		meas := []measurement{{words: words, amps: make([]float64, cycles)}}
		err := replay(core, meas, func(*cpu.Cycle, float64) {})
		if err == nil || !strings.Contains(err.Error(), "disagree on timing") {
			t.Errorf("%d amplitudes for a %d-cycle run: err = %v, want a timing disagreement", cycles, n, err)
		}
	}
	amps := make([]float64, n)
	for i := range amps {
		amps[i] = float64(i)
	}
	visited := 0
	err = replay(core, []measurement{{words: words, amps: amps}}, func(c *cpu.Cycle, amp float64) {
		if c.N != visited || int(amp) != visited {
			t.Errorf("visit %d: cycle %d with amplitude %v", visited, c.N, amp)
		}
		visited++
	})
	if err != nil || visited != n {
		t.Fatalf("exact match: err = %v after %d of %d cycles", err, visited, n)
	}
}

func TestNewTrainerRejectsNegativeWorkers(t *testing.T) {
	dev := device.MustNew(device.DefaultOptions())
	opts := smallCampaign()
	opts.Workers = -1
	if _, err := NewTrainer(dev, opts); err == nil {
		t.Error("NewTrainer accepted a negative worker count")
	}
}

// TestNewTrainerRejectsNegativeCampaignSizes: a campaign size is zero,
// which selects its default, or positive. A negative one fails Validate,
// so NewTrainer rejects it before any capture.
func TestNewTrainerRejectsNegativeCampaignSizes(t *testing.T) {
	dev := device.MustNew(device.DefaultOptions())
	cases := []struct {
		name string
		set  func(*TrainOptions)
	}{
		{"Runs", func(o *TrainOptions) { o.Runs = -2 }},
		{"InstancesPerCluster", func(o *TrainOptions) { o.InstancesPerCluster = -3 }},
		{"MaxActivityBits", func(o *TrainOptions) { o.MaxActivityBits = -1 }},
		{"MixedPrograms", func(o *TrainOptions) { o.MixedPrograms = -1 }},
		{"MixedLength", func(o *TrainOptions) { o.MixedLength = -5 }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			opts := smallCampaign()
			tc.set(&opts)
			if err := opts.Validate(); err == nil || !strings.Contains(err.Error(), "negative") {
				t.Errorf("Validate = %v, want a negative-size error", err)
			}
			if _, err := NewTrainer(dev, opts); err == nil {
				t.Error("NewTrainer accepted it")
			}
		})
	}
	if err := (TrainOptions{}).Validate(); err != nil {
		t.Errorf("zero options, every size its default: %v", err)
	}
}

// TestCampaignSizeLimits holds the campaign size limits to the scratch
// data they protect. At the largest accepted sizes, every program the
// activity and MISO generators make, over twenty campaign seeds, ends
// below dataBase and halts on the model core, and a campaign at those
// sizes trains. One probe or one instruction more fails Validate, so
// NewTrainer rejects it before any capture; sizes whose images reach
// dataBase fail in the generators.
func TestCampaignSizeLimits(t *testing.T) {
	c, err := cpu.New(cpu.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	for seed := int64(1); seed <= 20; seed++ {
		progs, err := randomOperandPrograms(func(i int) *rand.Rand {
			return trainStream(seed, PhaseActivity, int64(i))
		}, MaxInstancesPerCluster)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		mix, err := MixedProgram(trainStream(seed, PhaseMISO, 0), MaxMixedLength)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		for i, words := range append(progs, mix) {
			if 4*len(words) >= dataBase {
				t.Fatalf("seed %d program %d: %d words reach the scratch data", seed, i, len(words))
			}
			if _, err := c.RunProgram(words); err != nil {
				t.Fatalf("seed %d program %d: %v", seed, i, err)
			}
		}
	}

	opts := TrainOptions{Runs: 2, InstancesPerCluster: MaxInstancesPerCluster, MixedPrograms: 1, MixedLength: MaxMixedLength}
	if _, err := Train(device.MustNew(device.DefaultOptions()), opts); err != nil {
		t.Fatalf("campaign at the largest accepted sizes: %v", err)
	}
	over := opts
	over.InstancesPerCluster++
	if _, err := NewTrainer(device.MustNew(device.DefaultOptions()), over); err == nil {
		t.Errorf("NewTrainer accepted %d instances per cluster", over.InstancesPerCluster)
	}
	over = opts
	over.MixedLength++
	if _, err := NewTrainer(device.MustNew(device.DefaultOptions()), over); err == nil {
		t.Errorf("NewTrainer accepted mixed length %d", over.MixedLength)
	}
	if _, err := randomOperandPrograms(func(i int) *rand.Rand {
		return trainStream(1, PhaseActivity, int64(i))
	}, MaxInstancesPerCluster+1); err == nil {
		t.Errorf("randomOperandPrograms made %d-instance programs", MaxInstancesPerCluster+1)
	}
	if _, err := MixedProgram(rand.New(rand.NewSource(1)), dataBase/4); err == nil {
		t.Errorf("MixedProgram made a %d-instruction program", dataBase/4)
	}
}

// TestMeasurementCacheBudget fills a cache whose budget holds only part
// of a campaign's captures. Once full it stops growing and stays within
// its budget, still serves every capture it holds, and measures the rest
// again; the campaign run through it saves the same model bytes as one
// run without a cache.
func TestMeasurementCacheBudget(t *testing.T) {
	plain, _ := trainWith(t, smallCampaign())

	cache := NewMeasurementCache()
	cache.budget = 1 << 20
	opts := smallCampaign()
	opts.Cache = cache
	first, _ := trainWith(t, opts)
	held := cache.Stats()
	if cache.bytes > cache.budget {
		t.Fatalf("cache holds %d bytes, past its %d-byte budget", cache.bytes, cache.budget)
	}
	if held.Entries == 0 || int64(held.Entries) >= held.Misses {
		t.Fatalf("stats %+v: want a cache that filled up and dropped captures", held)
	}
	second, _ := trainWith(t, opts)
	after := cache.Stats()
	if after.Entries != held.Entries {
		t.Errorf("full cache grew from %d to %d entries", held.Entries, after.Entries)
	}
	if hits := after.Hits - held.Hits; hits < int64(held.Entries) {
		t.Errorf("retraining hit the cache %d times, want at least once per held capture (%d)", hits, held.Entries)
	}
	if !bytes.Equal(first, plain) || !bytes.Equal(second, plain) {
		t.Error("a campaign through a full cache saved different model bytes")
	}
}
