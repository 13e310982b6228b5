package core

import (
	"context"
	"fmt"

	"emsim/internal/cpu"
	"emsim/internal/obs"
	"emsim/internal/par"
	"emsim/internal/signal"
)

// Span identities of the session pipeline, interned once so the
// simulate hot path carries integers only.
var (
	spanSimulate = obs.RegisterSpan("session.simulate")
	spanBatch    = obs.RegisterSpan("session.batch")
)

// Session is the reusable simulation pipeline for one (model, core
// configuration) pair: it owns a resettable CPU, a cached reconstruction
// tap table and a growable signal buffer, and streams each run's cycles
// straight through the amplitude model into the overlap-add renderer —
// no cpu.Trace, amplitude slice or output slice is materialized per
// call. After the buffers warm up, SimulateProgramInto performs zero
// allocations per simulated trace, which is what makes campaign
// workloads (TVLA's thousands of AES traces, SAVAT matrices, batch
// sweeps) run at memory-bandwidth speed instead of allocator speed.
//
// A Session is not safe for concurrent use; SimulateBatch fans work
// across one private Session per worker.
type Session struct {
	model *Model
	cfg   cpu.Config
	core  *cpu.CPU
	rec   *signal.Reconstructor
	sink  ampSink
	sig   []float64 // buffer backing SimulateProgramInto's internal reuse
	lane  int       // trace lane this session's spans render on
}

// ampSink streams cycles from the core into the amplitude model and on
// into the reconstructor. It lives inside the Session so converting it to
// a cpu.CycleSink never allocates. When a tee is attached it sees every
// cycle after the amplitude model consumed it.
type ampSink struct {
	m   *Model
	rec *signal.Reconstructor
	tee cpu.CycleSink
}

//emsim:noalloc
func (a *ampSink) Cycle(c *cpu.Cycle) error {
	a.rec.Add(a.m.CycleAmplitude(c))
	if a.tee != nil {
		//emsim:ignore noalloc dynamic dispatch by design; tee observers on the hot path must themselves be allocation-free
		return a.tee.Cycle(c)
	}
	return nil
}

// NewSession builds a reusable pipeline for repeated simulations of
// programs under one core configuration. The model's fitted parameters
// are shared, not copied; ablation variants need their own Session (via
// Model.WithOptions).
func NewSession(m *Model, cfg cpu.Config) (*Session, error) {
	c, err := cpu.New(cfg)
	if err != nil {
		return nil, err
	}
	rec, err := m.Kernel.NewReconstructor(m.SamplesPerCycle)
	if err != nil {
		return nil, err
	}
	s := &Session{model: m, cfg: cfg, core: c, rec: rec, lane: obs.NextLane()}
	s.sink = ampSink{m: m, rec: rec}
	return s, nil
}

// NewSession builds a Session for this model; see core.NewSession.
func (m *Model) NewSession(cfg cpu.Config) (*Session, error) { return NewSession(m, cfg) }

// Model returns the model the session simulates with.
func (s *Session) Model() *Model { return s.model }

// Config returns the session's core configuration.
func (s *Session) Config() cpu.Config { return s.cfg }

// CPU exposes the session's core for result inspection (registers,
// memory) after a run. Mutating it between runs is safe — every simulate
// call fully resets the machine.
func (s *Session) CPU() *cpu.CPU { return s.core }

// Cycles returns the clock-cycle count of the last simulated program.
func (s *Session) Cycles() int { return s.core.CycleCount() }

// Stats returns the core statistics of the last simulated program.
func (s *Session) Stats() cpu.Stats { return s.core.Stats() }

// SetTee attaches an observer sink that sees every simulated cycle after
// the amplitude model (or detaches the current one when sink is nil).
// Serving layers use this to accumulate per-stage contributions or
// custom statistics without a second run. The observer runs on the hot
// path: it must not retain the *cpu.Cycle it is handed, and it should be
// allocation-free if the session's zero-allocation property matters.
func (s *Session) SetTee(sink cpu.CycleSink) { s.sink.tee = sink }

// SimulateProgramInto runs the program on the session's core and renders
// the predicted analog signal into dst's backing array, which is grown
// only when its capacity is insufficient. Passing the previous output
// back as dst makes steady-state reuse allocation-free. The returned
// slice aliases dst (or the session's grown buffer) and is valid until
// the next call that reuses it.
//
//emsim:noalloc
func (s *Session) SimulateProgramInto(dst []float64, words []uint32) ([]float64, error) {
	//emsim:ignore noalloc context.Background returns the shared static empty context
	return s.SimulateProgramIntoContext(context.Background(), dst, words) //emsim:ignore ctxflow documented non-cancellable convenience form of SimulateProgramIntoContext
}

// SimulateProgramIntoContext is SimulateProgramInto with cancellation:
// the simulation aborts with ctx.Err() when the context is cancelled or
// its deadline passes, checked every cpu.CtxCheckInterval cycles. The
// context plumbing costs one nil check per cycle for a context that can
// never be cancelled, so the zero-allocation steady state is unchanged.
//
//emsim:noalloc
func (s *Session) SimulateProgramIntoContext(ctx context.Context, dst []float64, words []uint32) ([]float64, error) {
	obs.Begin(spanSimulate, s.lane)
	s.rec.Start(dst)
	if err := s.core.RunProgramToContext(ctx, words, &s.sink); err != nil {
		obs.End(spanSimulate, s.lane)
		//emsim:ignore noalloc cold failure path: the simulation already aborted
		return nil, fmt.Errorf("core: simulate: %w", err)
	}
	sig := s.rec.Finish()
	obs.End(spanSimulate, s.lane)
	return sig, nil
}

// SimulateProgram runs the program and returns its predicted analog
// signal in a fresh slice the caller may retain. The trace, amplitude
// and reconstruction intermediates still reuse session buffers; only the
// returned signal is allocated. For fully allocation-free steady-state
// reuse, use SimulateProgramInto with a recycled destination.
func (s *Session) SimulateProgram(words []uint32) ([]float64, error) {
	//emsim:ignore ctxflow documented non-cancellable convenience form of SimulateProgramContext
	return s.SimulateProgramContext(context.Background(), words)
}

// SimulateProgramContext is SimulateProgram with the cancellation
// semantics of SimulateProgramIntoContext.
func (s *Session) SimulateProgramContext(ctx context.Context, words []uint32) ([]float64, error) {
	sig, err := s.SimulateProgramIntoContext(ctx, s.sig, words)
	if err != nil {
		return nil, err
	}
	s.sig = sig[:0] // keep the grown buffer for the next run
	out := make([]float64, len(sig))
	copy(out, sig)
	return out, nil
}

// SimulateBatch simulates every program of a campaign, fanning the slice
// across `workers` goroutines with one private Session each (workers <= 0
// selects GOMAXPROCS; workers is clamped to len(programs) so no worker
// ever idles on an empty range). Results are returned in input order;
// each signal is freshly allocated and safe to retain. When simulations
// fail, the error of the lowest-indexed failing program is returned —
// deterministically, regardless of goroutine scheduling.
func (s *Session) SimulateBatch(programs [][]uint32, workers int) ([][]float64, error) {
	//emsim:ignore ctxflow documented non-cancellable convenience form of SimulateBatchContext
	return s.SimulateBatchContext(context.Background(), programs, workers)
}

// SimulateBatchContext is SimulateBatch with cancellation: in-flight
// simulations abort within cpu.CtxCheckInterval cycles of the context
// being cancelled, and the batch returns ctx.Err(). The fan-out, its
// result order and its error precedence are par.Ordered's.
func (s *Session) SimulateBatchContext(ctx context.Context, programs [][]uint32, workers int) ([][]float64, error) {
	if len(programs) == 0 {
		return nil, nil
	}
	obs.Begin(spanBatch, s.lane)
	defer obs.End(spanBatch, s.lane)
	out := make([][]float64, len(programs))
	err := par.Ordered(ctx, len(programs), workers,
		func() (*Session, error) { return NewSession(s.model, s.cfg) },
		func(ctx context.Context, ws *Session, i int) ([]float64, error) {
			sig, err := ws.SimulateProgramContext(ctx, programs[i])
			if err != nil {
				return nil, fmt.Errorf("core: batch program %d: %w", i, err)
			}
			return sig, nil
		},
		func(i int, sig []float64) error {
			out[i] = sig
			return nil
		})
	if err != nil {
		return nil, err
	}
	return out, nil
}
