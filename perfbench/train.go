package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"emsim/internal/core"
	"emsim/internal/device"
)

// The train workload is a cold core.Trainer.Run: the only flow where
// device capture and the stats regression fits do the work, and the one
// that drives the CPU through the materialised-Trace path.

// fidelityFloor is the ROADMAP's held-out mean NCC floor for a trained
// model.
const fidelityFloor = 0.90

// trainOptions are the default campaign with the benchmark seed, or the
// pinned golden model's small campaign for the smoke test.
func trainOptions(cfg config) core.TrainOptions {
	o := core.TrainOptions{Seed: cfg.seed, Workers: cfg.workers}
	if cfg.quick {
		o.Runs, o.InstancesPerCluster, o.MixedPrograms, o.MixedLength = 3, 10, 2, 200
	}
	return o
}

// newTrainer builds a fresh default device and a trainer against it.
func newTrainer(opts core.TrainOptions) (*core.Trainer, error) {
	dev, err := device.New(device.DefaultOptions())
	if err != nil {
		return nil, err
	}
	return core.NewTrainer(dev, opts)
}

// modelChecker holds the first campaign's model JSON; every later
// campaign of the run has the same seed and must match it byte for byte.
type modelChecker struct {
	want  []byte
	first *core.Model
}

func (c *modelChecker) check(m *core.Model, err error, corrupt bool) error {
	if err != nil {
		return fmt.Errorf("train: %w", err)
	}
	var b bytes.Buffer
	if err := m.Save(&b); err != nil {
		return err
	}
	if corrupt {
		b.WriteByte(' ')
	}
	if c.want == nil {
		c.want, c.first = b.Bytes(), m
		return nil
	}
	if !bytes.Equal(b.Bytes(), c.want) {
		return errors.New("train: model JSON differs from the first campaign's at the same seed")
	}
	return nil
}

// runTrain times cold campaigns until the budget is spent, then scores
// the first model on held-out combination groups.
func runTrain(ctx context.Context, cfg config, rep *report) error {
	opts := trainOptions(cfg)
	su := setupTimer[*core.Trainer]{setup: func() (*core.Trainer, error) { return newTrainer(opts) }}
	if _, err := su.first(); err != nil {
		return err
	}
	var measured atomic.Int64
	opts.Progress = func(p core.Progress) {
		if p.Done > 0 {
			measured.Add(1)
		}
	}
	var chk modelChecker
	var walls []float64
	var allocs uint64
	start := time.Now()
	for len(walls) < 2 || time.Since(start) < cfg.budget() {
		a0 := allocatedBytes()
		t0 := time.Now()
		t, err := newTrainer(opts)
		var m *core.Model
		if err == nil {
			m, err = t.Run(ctx)
		}
		walls = append(walls, ms(time.Since(t0)))
		allocs += allocatedBytes() - a0
		rep.op(chk.check(m, err, cfg.corrupt && len(walls) == 2))
		if err := su.again(); err != nil {
			return err
		}
	}
	logOps(walls)
	rep.set("peak_rss_mb", peakRSSMB()) // before the held-out captures, which would set the peak
	n := float64(len(walls))
	rep.set("traces_per_s", float64(measured.Load())/(sum(walls)/1e3))
	rep.set("alloc_mb_per_op", float64(allocs)/n/1e6)
	rep.set("latency_p50_ms", median(walls))
	rep.set("latency_p99_ms", quantile(walls, 1)) // ~20 campaigns a run: too few for a p99, so the slowest
	if chk.first == nil {
		return errors.New("train: no campaign completed")
	}
	acc, err := setCommon(rep, su.median(), chk.first, cfg)
	if err != nil {
		return err
	}
	if acc < fidelityFloor {
		rep.op(fmt.Errorf("train: held-out accuracy %.4f is below the %.2f floor", acc, fidelityFloor))
	} else {
		rep.op(nil)
	}
	return nil
}

// phaseRecorder turns a campaign's Progress events into phase spans: a
// phase announces itself with Done == 0, after the previous one ended.
type phaseRecorder struct {
	tr     *tracer
	parent int
	op     int64
	mu     sync.Mutex
	open   int
}

func (r *phaseRecorder) progress(p core.Progress) {
	if p.Done != 0 {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.tr.end(r.open)
	r.open = r.tr.begin("core.trainer."+p.Phase.String(), r.parent, r.op, 0)
}

// tracedCampaign runs one campaign against cache with phase spans under a
// run span named for its temperature.
func tracedCampaign(ctx context.Context, opts core.TrainOptions, tr *tracer, temp string, op int64) (*core.Model, [core.NumPhases]time.Duration, time.Duration, error) {
	rec := &phaseRecorder{tr: tr, op: op, open: -1}
	opts.Progress = rec.progress
	t, err := newTrainer(opts)
	if err != nil {
		return nil, [core.NumPhases]time.Duration{}, 0, err
	}
	t0 := time.Now()
	rec.parent = tr.begin("core.trainer.run."+temp, -1, op, 0)
	m, err := t.Run(ctx)
	rec.mu.Lock()
	tr.end(rec.open)
	rec.mu.Unlock()
	tr.end(rec.parent)
	return m, t.PhaseTimings(), time.Since(t0), err
}

// tracedTrain alternates an untraced cold campaign with a traced cold
// campaign and a warm rerun against the cold run's MeasurementCache; the
// difference between cold and warm phases is device capture.
func tracedTrain(ctx context.Context, cfg config, rep *report) error {
	opts := trainOptions(cfg)
	tr := newTracer()
	var untraced, traced []float64
	var cold, warm [core.NumPhases][]float64
	var measurements, hits, lookups int64
	start := time.Now()
	for n := int64(0); n == 0 || time.Since(start) < cfg.budget(); n++ {
		t0 := time.Now()
		t, err := newTrainer(opts)
		if err == nil {
			_, err = t.Run(ctx)
		}
		untraced = append(untraced, time.Since(t0).Seconds())
		rep.op(err)

		copts := opts
		copts.Cache = core.NewMeasurementCache()
		var chk modelChecker
		mc, pc, wall, err := tracedCampaign(ctx, copts, tr, "cold", 2*n)
		rep.op(chk.check(mc, err, false))
		coldStats := copts.Cache.Stats()
		mw, pw, _, err := tracedCampaign(ctx, copts, tr, "warm", 2*n+1)
		if err := chk.check(mw, err, cfg.corrupt); err != nil {
			rep.op(fmt.Errorf("warm rerun: %w", err))
			continue
		}
		rep.op(nil)
		warmStats := copts.Cache.Stats()
		traced = append(traced, wall.Seconds())
		for p := range pc {
			cold[p] = append(cold[p], pc[p].Seconds())
			warm[p] = append(warm[p], pw[p].Seconds())
		}
		measurements = coldStats.Misses
		hits = warmStats.Hits - coldStats.Hits
		lookups = hits + warmStats.Misses - coldStats.Misses
	}
	if len(traced) == 0 {
		return errors.New("train: no traced campaign completed")
	}
	measureS, fitS := 0.0, 0.0
	for p := 0; p < core.NumPhases; p++ {
		name := "core.trainer." + core.Phase(p).String()
		c, w := median(cold[p]), median(warm[p])
		rep.set(name+".cold_s", c)
		rep.set(name+".warm_s", w)
		measureS += c - w
		fitS += w
	}
	rep.set("device.measure_s", measureS)
	rep.set("device.measurements", float64(measurements))
	rep.set("device.measure_ms", 1e3*measureS/float64(measurements))
	rep.set("stats.fit_s", fitS)
	rep.set("core.cache_hit_ratio", float64(hits)/float64(lookups))
	rep.set("core.cache_lookups", float64(lookups))
	rep.set("bench.trace_overhead", median(traced)/median(untraced)-1)
	return tr.write(cfg.traceOut, envHeader(cfg))
}
