package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"os"
	"runtime"
	"time"

	"emsim/internal/aes"
	"emsim/internal/core"
	"emsim/internal/cpu"
	"emsim/internal/defend"
	"emsim/internal/leakage"
	"emsim/internal/signal"
)

// The defend workload is the paper's security use case (§VI-A): a TVLA
// plus CPA campaign on AES, baseline against the shuffle countermeasure.
// Every simulation-path layer works on it; device capture, the trainer's
// fits and serving do none.
const defendSpec = "shuffle"

// defendBudget is one campaign's attack budget.
type defendBudget struct{ tvla, cpa, step int }

// defendBudgets are defend.Evaluate's defaults, or a small campaign for
// the smoke test whose baseline arm still leaks.
func defendBudgets(quick bool) defendBudget {
	if quick {
		return defendBudget{tvla: 8, cpa: 384, step: 64}
	}
	return defendBudget{tvla: 64, cpa: 512, step: 64}
}

// traces is the number of AES traces one campaign simulates and analyses:
// CPA traces plus both TVLA groups, for each of the two arms.
func (b defendBudget) traces() int { return 2 * (b.cpa + 2*b.tvla) }

type defendState struct {
	model *core.Model
	spec  defend.Spec
}

// defendSetup loads the pinned model, parses the countermeasure and runs
// one defended trace, so lazy initialisation is done before timing.
func defendSetup(ctx context.Context, cfg config) (defendState, error) {
	m, err := core.LoadModelFile(modelPath(cfg.root))
	if err != nil {
		return defendState{}, err
	}
	spec, err := defend.ParseSpec(defendSpec)
	if err != nil {
		return defendState{}, err
	}
	cm, err := spec.New()
	if err != nil {
		return defendState{}, err
	}
	sess, err := defend.NewSession(m, cpu.DefaultConfig(), cm, cfg.seed)
	if err != nil {
		return defendState{}, err
	}
	prog, err := aes.BuildProgram(defend.DefaultKey, defend.DefaultFixed)
	if err != nil {
		return defendState{}, err
	}
	if _, err := sess.SimulateTraceInto(ctx, nil, 0, prog.Words); err != nil {
		return defendState{}, err
	}
	return defendState{model: m, spec: spec}, nil
}

func (st defendState) options(cfg config, workers int) defend.Options {
	b := defendBudgets(cfg.quick)
	return defend.Options{
		Model: st.model, Defense: st.spec, Seed: cfg.seed, Workers: workers,
		TVLATraces: b.tvla, CPATraces: b.cpa, CPAStep: b.step,
	}
}

// maxBaselineRank bounds the true key byte's CPA rank on the baseline arm
// at the full budget. Full disclosure within 512 traces depends on the
// seed (4 of 50 seeds leave the key at rank 1 to 4); a simulator whose
// signal no longer leaks ranks it near 128.
const maxBaselineRank = 7

// reportChecker holds the first campaign's SecurityReport JSON; every
// later campaign of the run, at any worker count, must match it byte for
// byte. The baseline arm must leak: TVLA detects it, CPA ranks the key
// within maxBaselineRank, and shuffling lowers |t|max.
type reportChecker struct{ want []byte }

func (c *reportChecker) check(r *defend.SecurityReport, err error, workers int) error {
	if err != nil {
		return fmt.Errorf("defend: Evaluate at %d workers: %w", workers, err)
	}
	if rank := r.Baseline.CPARanks[len(r.Baseline.CPARanks)-1].Rank; rank > maxBaselineRank || r.Baseline.DetectTraces == 0 {
		return fmt.Errorf("defend: baseline arm at %d workers: key rank %d at the full budget, TVLA detection at %d traces", workers, rank, r.Baseline.DetectTraces)
	}
	if r.Defended.MaxAbsT >= r.Baseline.MaxAbsT {
		return fmt.Errorf("defend: shuffle did not reduce TVLA |t|max (%.2f -> %.2f)", r.Baseline.MaxAbsT, r.Defended.MaxAbsT)
	}
	b, err := json.Marshal(r)
	if err != nil {
		return err
	}
	if c.want == nil {
		c.want = b
		return nil
	}
	if !bytes.Equal(b, c.want) {
		return fmt.Errorf("defend: SecurityReport at %d workers differs from the first campaign's", workers)
	}
	return nil
}

// runDefend times defend.Evaluate at nproc workers, then checks one
// single-worker campaign against the timed ones.
func runDefend(ctx context.Context, cfg config, rep *report) error {
	su := setupTimer[defendState]{setup: func() (defendState, error) { return defendSetup(ctx, cfg) }}
	st, err := su.first()
	if err != nil {
		return err
	}
	opts := st.options(cfg, cfg.workers)
	var chk reportChecker
	var walls []float64
	var allocs uint64
	start := time.Now()
	for len(walls) < 2 || time.Since(start) < cfg.budget() {
		a0 := allocatedBytes()
		t0 := time.Now()
		r, err := defend.Evaluate(ctx, opts)
		walls = append(walls, ms(time.Since(t0)))
		allocs += allocatedBytes() - a0
		rep.op(chk.check(r, err, opts.Workers))
		if err := su.again(); err != nil {
			return err
		}
	}
	logOps(walls)
	rep.set("peak_rss_mb", peakRSSMB()) // before the held-out captures, which would set the peak
	n := float64(len(walls))
	rep.set("traces_per_s", n*float64(defendBudgets(cfg.quick).traces())/(sum(walls)/1e3))
	rep.set("alloc_mb_per_op", float64(allocs)/n/1e6)
	rep.set("latency_p50_ms", median(walls))
	rep.set("latency_p99_ms", quantile(walls, 1)) // ~20 campaigns a run: too few for a p99, so the slowest

	one := opts
	one.Workers = 1
	r, err := defend.Evaluate(ctx, one)
	if err == nil && cfg.corrupt {
		r.Defended.MaxAbsT = -r.Defended.MaxAbsT
	}
	rep.op(chk.check(r, err, 1))
	_, err = setCommon(rep, su.median(), st.model, cfg)
	return err
}

// Layers of one defend trace, in the order Evaluate composes them. The
// traced run times each through the public API of its package.
const (
	lAES      = iota // aes.BuildProgram
	lArm             // Countermeasure.Arm
	lCPU             // CPU.RunProgramTo, counting sink
	lAmpRun          // CPU.RunProgramTo, Model.CycleAmplitude sink (cpu + amp)
	lRec             // Reconstructor Start/AddChunk/Finish
	lSession         // defend.Session.SimulateTraceInto
	lNoise           // NormFloat64 noise pass
	lExtract         // core.ExtractAmplitudes
	lCPAAdd          // leakage.CPAStream.Add (with its hypothesis row)
	lCPASnap         // leakage.CPAStream.Snapshot
	lTVLAAdd         // leakage.TVLAStream.Add*
	lTVLASnap        // leakage.TVLAStream.MaxAbsT / Snapshot
	numLayers
)

var layerNames = [numLayers]string{
	"aes.build", "defend.arm", "cpu.busy", "core.amp_run", "signal.reconstruct",
	"core.session", "defend.noise", "core.extract",
	"leakage.cpa_add", "leakage.cpa_snapshot", "leakage.tvla_add", "leakage.tvla_snapshot",
}

// mainPath are the layers Evaluate itself runs per trace; core.session
// contains arm, cpu, amp and reconstruct, which the decomposition times
// again in isolation.
var mainPath = []int{lAES, lSession, lNoise, lExtract, lCPAAdd, lCPASnap, lTVLAAdd, lTVLASnap}

// countSink counts cycles and does nothing else: the CPU layer alone.
type countSink struct{ n int }

func (s *countSink) Cycle(*cpu.Cycle) error { s.n++; return nil }

// ampCollector evaluates the amplitude model per cycle and keeps the
// series for the reconstruction layer.
type ampCollector struct {
	m    *core.Model
	amps []float64
}

func (a *ampCollector) Cycle(c *cpu.Cycle) error {
	a.amps = append(a.amps, a.m.CycleAmplitude(c))
	return nil
}

// pipeline is the traced composition of one defend campaign: the steps
// Evaluate runs per trace, at the same budgets, on one goroutine, each
// timed around its public call and recorded as a span.
type pipeline struct {
	m        *core.Model
	cfg      cpu.Config
	tr       *tracer
	noiseStd float64

	busy    [numLayers]time.Duration
	traces  int
	offPath time.Duration // allocation probes inside the main-path loop
	jobs    []decompJob

	// Simulated counts, summed over the campaign's session runs.
	cycles, stalls, flushes, injected int
	cacheMisses                       uint64
	// Decomposition counts.
	cpuCycles, zeroAmps int
	// core.ExtractAmplitudes allocations, sampled every allocProbe traces.
	extractAllocs, extractProbes uint64
	cpaSamples, cpaTruncated     int
	baselineRank                 int

	core   *cpu.CPU
	rec    *signal.Reconstructor
	count  countSink
	amp    ampCollector
	recBuf []float64
	sig    []float64
}

const allocProbe = 64

func newPipeline(m *core.Model, tr *tracer) (*pipeline, error) {
	cfg := cpu.DefaultConfig()
	c, err := cpu.New(cfg)
	if err != nil {
		return nil, err
	}
	rec, err := m.Kernel.NewReconstructor(m.SamplesPerCycle)
	if err != nil {
		return nil, err
	}
	// 0.02 is defend.Options' default NoiseStd, which Evaluate runs with here.
	return &pipeline{m: m, cfg: cfg, tr: tr, noiseStd: 0.02, core: c, rec: rec, amp: ampCollector{m: m}}, nil
}

// timed runs one layer call, adds its duration to the layer's busy time
// and records its span.
func (p *pipeline) timed(l, parent int, op int64, fn func() error) error {
	t0 := time.Now()
	err := fn()
	t1 := time.Now()
	p.busy[l] += t1.Sub(t0)
	p.tr.add(layerNames[l], t0, t1, parent, op, 0)
	return err
}

// plaintext is trace i's random plaintext in one campaign phase.
func plaintext(seed int64, phase, i int) [16]byte {
	rng := rand.New(rand.NewSource(seed*7919 + int64(phase)<<32 + int64(i)))
	var pt [16]byte
	for b := range pt {
		pt[b] = byte(rng.Intn(256))
	}
	return pt
}

// build times aes.BuildProgram for one plaintext.
func (p *pipeline) build(pt [16]byte, parent int, op int64) ([]uint32, error) {
	var words []uint32
	err := p.timed(lAES, parent, op, func() error {
		prog, err := aes.BuildProgram(defend.DefaultKey, pt)
		if err == nil {
			words = prog.Words
		}
		return err
	})
	return words, err
}

// decompJob is one trace queued for the decomposition pass.
type decompJob struct {
	words    []uint32
	index    int64
	defended bool
	op       int64
}

// decompose re-runs the session's inner layers — arm, CPU, amplitude
// model, reconstruction — in isolation for every trace of the campaign.
// It runs after the main path so it cannot disturb the main path's caches.
// Both CPU runs of a trace reuse one arming: shuffle rewrites the image
// and installs no stateful fetch injector.
func (p *pipeline) decompose(spec defend.Spec) error {
	id := p.tr.begin("defend.decompose", -1, p.jobs[0].op, 0)
	defer p.tr.end(id)
	cm, err := spec.New()
	if err != nil {
		return err
	}
	for _, j := range p.jobs {
		run := j.words
		if j.defended {
			err := p.timed(lArm, id, j.op, func() error {
				armed, err := cm.Arm(j.words, uint64(j.index))
				run = armed.Words
				p.core.SetFetchInjector(armed.Injector)
				return err
			})
			if err != nil {
				return err
			}
		}
		p.count.n = 0
		if err := p.timed(lCPU, id, j.op, func() error { return p.core.RunProgramTo(run, &p.count) }); err != nil {
			return err
		}
		p.cpuCycles += p.count.n
		p.amp.amps = p.amp.amps[:0]
		if err := p.timed(lAmpRun, id, j.op, func() error { return p.core.RunProgramTo(run, &p.amp) }); err != nil {
			return err
		}
		p.core.SetFetchInjector(nil)
		_ = p.timed(lRec, id, j.op, func() error {
			p.rec.Start(p.recBuf)
			p.rec.AddChunk(p.amp.amps)
			p.recBuf = p.rec.Finish()
			return nil
		})
		for _, a := range p.amp.amps {
			if a == 0 {
				p.zeroAmps++
			}
		}
	}
	return nil
}

// trace runs one trace's main path up to the extracted amplitudes and
// queues it for the decomposition pass.
func (p *pipeline) trace(ctx context.Context, sess *defend.Session, defended bool, words []uint32, index int64, seed int64, parent int, op int64) ([]float64, error) {
	id := p.tr.begin("defend.trace", parent, op, 0)
	defer p.tr.end(id)
	p.traces++
	p.jobs = append(p.jobs, decompJob{words: words, index: index, defended: defended, op: op})

	var sig []float64
	err := p.timed(lSession, id, op, func() error {
		var err error
		sig, err = sess.SimulateTraceInto(ctx, p.sig, index, words)
		return err
	})
	if err != nil {
		return nil, err
	}
	st := sess.Stats()
	p.cycles += sess.Cycles()
	p.stalls += st.StallCycles
	p.flushes += st.Flushes
	p.cacheMisses += st.CacheMisses
	p.injected += st.Injected
	_ = p.timed(lNoise, id, op, func() error {
		noise := rand.New(rand.NewSource(seed ^ index*0x5DEECE66D))
		for k := range sig {
			sig[k] += p.noiseStd * noise.NormFloat64()
		}
		return nil
	})
	probe := p.traces%allocProbe == 1
	var m0 runtime.MemStats
	if probe {
		a0 := time.Now()
		runtime.ReadMemStats(&m0)
		p.offPath += time.Since(a0)
	}
	var amp []float64
	err = p.timed(lExtract, id, op, func() error {
		var err error
		amp, err = core.ExtractAmplitudes(sig, p.m.SamplesPerCycle, p.m.Kernel)
		return err
	})
	if probe {
		a0 := time.Now()
		var m1 runtime.MemStats
		runtime.ReadMemStats(&m1)
		p.extractAllocs += m1.Mallocs - m0.Mallocs
		p.extractProbes++
		p.offPath += time.Since(a0)
	}
	p.sig = sig[:0]
	return amp, err
}

// hypothesisRow is defend's CPA leakage model: the Hamming distance of the
// round-1 S-box transition for every key-byte guess.
func hypothesisRow(pt byte, row []float64) {
	for g := range row {
		x := pt ^ byte(g)
		row[g] = leakage.HammingWeight(uint32(aes.SBox(x) ^ x))
	}
}

// arm runs one arm's CPA and TVLA passes.
func (p *pipeline) arm(ctx context.Context, name string, spec defend.Spec, seed int64, b defendBudget, parent int, opBase int64) error {
	id := p.tr.begin("defend.arm."+name, parent, opBase, 0)
	defer p.tr.end(id)
	defended := spec.Name != ""
	var cm defend.Countermeasure
	if defended {
		var err error
		if cm, err = spec.New(); err != nil {
			return err
		}
	}
	sess, err := defend.NewSession(p.m, p.cfg, cm, seed)
	if err != nil {
		return err
	}

	progs := make([][]uint32, b.cpa)
	pts := make([][16]byte, b.cpa)
	for i := range progs {
		pts[i] = plaintext(seed, 0, i)
		if progs[i], err = p.build(pts[i], id, opBase+int64(i)); err != nil {
			return err
		}
	}
	cpa := leakage.NewCPAStream(256, 0, b.step)
	hyp := make([]float64, 256)
	for i, words := range progs {
		op := opBase + int64(i)
		amp, err := p.trace(ctx, sess, defended, words, int64(i), seed, id, op)
		if err != nil {
			return err
		}
		if err := p.timed(lCPAAdd, id, op, func() error {
			hypothesisRow(pts[i][0], hyp)
			return cpa.Add(amp, hyp)
		}); err != nil {
			return err
		}
		if (i+1)%b.step != 0 {
			continue
		}
		if err := p.timed(lCPASnap, id, op, func() error {
			r, err := cpa.Snapshot()
			if err == nil && i+1 == b.cpa && spec.Name == "" {
				p.baselineRank = r.Rank(int(defend.DefaultKey[0]))
			}
			return err
		}); err != nil {
			return err
		}
	}
	if defended {
		p.cpaSamples, p.cpaTruncated = cpa.Samples(), cpa.TruncatedSamples()
	}

	opBase += int64(b.cpa)
	fixed, err := p.build(defend.DefaultFixed, id, opBase)
	if err != nil {
		return err
	}
	tprogs := make([][]uint32, 2*b.tvla)
	for j := 0; j < b.tvla; j++ {
		tprogs[2*j] = fixed
		if tprogs[2*j+1], err = p.build(plaintext(seed, 1, j), id, opBase+int64(2*j+1)); err != nil {
			return err
		}
	}
	tv := leakage.NewTVLAStream()
	next := 4
	for i, words := range tprogs {
		op := opBase + int64(i)
		amp, err := p.trace(ctx, sess, defended, words, int64(b.cpa+i), seed, id, op)
		if err != nil {
			return err
		}
		if err := p.timed(lTVLAAdd, id, op, func() error {
			if i%2 == 0 {
				return tv.AddFixed(amp)
			}
			return tv.AddRandom(amp)
		}); err != nil {
			return err
		}
		g := (i + 1) / 2
		if i%2 == 0 || (g != next && g != b.tvla) {
			continue
		}
		next *= 2
		if err := p.timed(lTVLASnap, id, op, func() error {
			if g == b.tvla {
				_, err := tv.Snapshot()
				return err
			}
			_, err := tv.MaxAbsT()
			return err
		}); err != nil {
			return err
		}
	}
	return nil
}

// campaign runs both arms, as Evaluate does.
func (p *pipeline) campaign(ctx context.Context, spec defend.Spec, seed int64, b defendBudget, op int64) error {
	id := p.tr.begin("defend.campaign", -1, op, 0)
	defer p.tr.end(id)
	per := int64(b.traces() / 2)
	if err := p.arm(ctx, "baseline", defend.Spec{}, seed, b, id, op*int64(b.traces())); err != nil {
		return err
	}
	return p.arm(ctx, spec.String(), spec, seed, b, id, op*int64(b.traces())+per)
}

// tracedDefend alternates an untraced single-worker Evaluate with the
// traced composition of the same campaign, and reports per-trace busy
// time for every layer against the untraced per-trace time.
func tracedDefend(ctx context.Context, cfg config, rep *report) error {
	st, err := defendSetup(ctx, cfg)
	if err != nil {
		return err
	}
	// One processor: at 1 worker Evaluate still overlaps the consumer's
	// CPA/TVLA accumulation with simulation on a second core, which would
	// hide part of the serial per-trace cost the layer times add up to.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	b := defendBudgets(cfg.quick)
	tr := newTracer()
	var chk reportChecker
	// Coverage and overhead are ratios within each untraced/traced pair,
	// so a host that drifts between pairs does not move them.
	var untraced, cover, overhead []float64
	var first *pipeline
	var total [numLayers]time.Duration
	var traces int
	start := time.Now()
	for n := int64(0); len(untraced) < 1 || time.Since(start) < cfg.budget(); n++ {
		t0 := time.Now()
		r, err := defend.Evaluate(ctx, st.options(cfg, 1))
		untraced = append(untraced, float64(time.Since(t0))/float64(b.traces()))
		rep.op(chk.check(r, err, 1))

		p, err := newPipeline(st.model, tr)
		if err != nil {
			return err
		}
		t0 = time.Now()
		err = p.campaign(ctx, st.spec, cfg.seed, b, n)
		wall := time.Since(t0)
		if err == nil {
			err = p.decompose(st.spec)
		}
		if err == nil && p.baselineRank > maxBaselineRank {
			err = fmt.Errorf("defend: traced baseline CPA ranks the key %d at the full budget", p.baselineRank)
		}
		if err == nil && cfg.corrupt {
			err = errors.New("defend: corrupted traced campaign")
		}
		rep.op(err)
		if err != nil {
			continue
		}
		u := untraced[len(untraced)-1]
		overhead = append(overhead, float64(wall-p.offPath)/float64(p.traces)/u-1)
		var main time.Duration
		for _, l := range mainPath {
			main += p.busy[l]
		}
		cover = append(cover, float64(main)/float64(p.traces)/u)
		for l := range total {
			total[l] += p.busy[l]
		}
		traces += p.traces
		if first == nil {
			first = p
		}
	}
	if first == nil {
		return errors.New("defend: no traced campaign completed")
	}
	perTrace := func(l int) float64 { return float64(total[l]) / float64(traces) / 1e3 }
	uUS := median(untraced) / 1e3
	for _, l := range []int{lAES, lArm, lRec, lSession, lNoise, lExtract} {
		rep.set(layerNames[l]+"_us", perTrace(l))
	}
	rep.set("cpu.busy_us", perTrace(lCPU))
	rep.set("core.amp_us", perTrace(lAmpRun)-perTrace(lCPU))
	rep.set("core.session_overhead_us", perTrace(lSession)-perTrace(lArm)-perTrace(lAmpRun)-perTrace(lRec))
	rep.set("leakage.cpa_add_us", perTrace(lCPAAdd))
	rep.set("leakage.cpa_snapshot_us", perTrace(lCPASnap))
	rep.set("leakage.tvla_add_us", perTrace(lTVLAAdd))
	rep.set("leakage.tvla_snapshot_us", perTrace(lTVLASnap))
	rep.set("core.extract_allocs", float64(first.extractAllocs)/float64(first.extractProbes))
	rep.set("cpu.cycles", float64(first.cycles))
	rep.set("cpu.stall_cycles", float64(first.stalls))
	rep.set("cpu.flushes", float64(first.flushes))
	rep.set("cpu.cache_misses", float64(first.cacheMisses))
	rep.set("defend.injected", float64(first.injected))
	rep.set("cpu.host_ns_per_cycle", float64(total[lCPU])/float64(first.cpuCycles*len(cover)))
	rep.set("signal.zero_amp_ratio", float64(first.zeroAmps)/float64(first.cpuCycles))
	rep.set("leakage.cpa_samples", float64(first.cpaSamples))
	rep.set("leakage.cpa_truncated", float64(first.cpaTruncated))
	rep.set("bench.trace_us", uUS)
	rep.set("bench.layer_coverage", median(cover))
	rep.set("bench.trace_overhead", median(overhead))

	printLayerShares(os.Stdout, perTrace, uUS)
	return tr.write(cfg.traceOut, envHeader(cfg))
}

// printLayerShares prints what one defend trace costs per layer, as a
// share of the untraced single-worker per-trace time.
func printLayerShares(w io.Writer, perTrace func(int) float64, uUS float64) {
	fmt.Fprintf(w, "# defend: one trace, %.1f us untraced at 1 worker\n", uUS)
	fmt.Fprintf(w, "# %-24s %10s %7s\n", "layer", "us/trace", "share")
	row := func(name string, us float64) {
		fmt.Fprintf(w, "# %-24s %10.1f %6.1f%%\n", name, us, 100*us/uUS)
	}
	row("aes.build", perTrace(lAES))
	row("core.session", perTrace(lSession))
	row("  defend.arm", perTrace(lArm))
	row("  cpu.busy", perTrace(lCPU))
	row("  core.amp", perTrace(lAmpRun)-perTrace(lCPU))
	row("  signal.reconstruct", perTrace(lRec))
	row("  (session overhead)", perTrace(lSession)-perTrace(lArm)-perTrace(lAmpRun)-perTrace(lRec))
	row("defend.noise", perTrace(lNoise))
	row("core.extract", perTrace(lExtract))
	row("leakage.cpa_add", perTrace(lCPAAdd))
	row("leakage.cpa_snapshot", perTrace(lCPASnap))
	row("leakage.tvla_add", perTrace(lTVLAAdd))
	row("leakage.tvla_snapshot", perTrace(lTVLASnap))
	row("reconstruct+noise+extract", perTrace(lRec)+perTrace(lNoise)+perTrace(lExtract))
}
