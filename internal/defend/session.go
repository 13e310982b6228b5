package defend

import (
	"context"
	"fmt"

	"emsim/internal/core"
	"emsim/internal/cpu"
)

// Session runs defended simulations: it wraps a core.Session and, per
// trace, arms its countermeasure with a stream seed keyed by the trace
// index, installs the resulting fetch injector for the duration of the
// run, and executes the (possibly transformed) image. A nil
// countermeasure makes the Session a plain baseline simulator, so one
// code path serves both arms of an evaluation.
//
// Like core.Session, a Session is not safe for concurrent use; parallel
// campaigns build one per worker. Because the randomization is keyed by
// (seed, trace index), not by worker identity, results are byte-identical
// at any worker count.
type Session struct {
	sess *core.Session
	cm   Countermeasure
	seed int64
	next int64
	sig  []float64
}

// NewSession builds a defended simulation pipeline. cm may be nil for a
// baseline (undefended) session.
func NewSession(m *core.Model, cfg cpu.Config, cm Countermeasure, seed int64) (*Session, error) {
	s, err := core.NewSession(m, cfg)
	if err != nil {
		return nil, err
	}
	return &Session{sess: s, cm: cm, seed: seed}, nil
}

// Core exposes the wrapped core.Session (for stats, register/memory
// inspection after a run).
func (s *Session) Core() *core.Session { return s.sess }

// Countermeasure returns the armed countermeasure (nil for baseline).
func (s *Session) Countermeasure() Countermeasure { return s.cm }

// Cycles returns the clock-cycle count of the last simulated trace.
func (s *Session) Cycles() int { return s.sess.Cycles() }

// Stats returns the core statistics of the last simulated trace.
func (s *Session) Stats() cpu.Stats { return s.sess.Stats() }

// SimulateTraceInto runs one defended trace of the program into dst
// (core.Session.SimulateProgramInto reuse semantics). index keys the
// per-trace randomization: the same (session seed, index, words) triple
// always produces the same signal, whichever worker runs it.
func (s *Session) SimulateTraceInto(ctx context.Context, dst []float64, index int64, words []uint32) ([]float64, error) {
	run := words
	if s.cm != nil {
		armed, err := s.cm.Arm(words, stream(s.seed, laneArm, index))
		if err != nil {
			return nil, fmt.Errorf("defend: arm %s: %w", s.cm.Name(), err)
		}
		run = armed.Words
		core := s.sess.CPU()
		core.SetFetchInjector(armed.Injector)
		defer core.SetFetchInjector(nil)
	}
	return s.sess.SimulateProgramIntoContext(ctx, dst, run)
}

// SimulateProgram implements leakage.Simulator: each call simulates one
// defended trace under the next consecutive randomization index
// (starting at zero) and returns a fresh signal the caller may retain.
func (s *Session) SimulateProgram(words []uint32) ([]float64, error) {
	index := s.next
	s.next++
	//emsim:ignore ctxflow the context-free leakage.Simulator interface fixes this signature; SimulateTraceInto is the cancellable form
	sig, err := s.SimulateTraceInto(context.Background(), s.sig, index, words)
	if err != nil {
		return nil, err
	}
	s.sig = sig[:0] // keep the grown buffer for the next trace
	out := make([]float64, len(sig))
	copy(out, sig)
	return out, nil
}
