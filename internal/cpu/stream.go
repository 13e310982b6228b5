package cpu

import (
	"context"
	"fmt"
)

// CycleSink consumes per-cycle trace records as the core emits them. The
// streaming run loop hands every sink call a pointer into a record it
// reuses for the next cycle, so a sink that wants to retain a cycle must
// copy the value (appending to a Trace does exactly that). Returning an
// error aborts the run.
//
// Sinks are how the simulation pipeline avoids materializing a whole
// cpu.Trace per run: the EM model's amplitude evaluation, statistics
// collection, or trace recording all attach here and see each cycle
// exactly once, in order.
type CycleSink interface {
	Cycle(c *Cycle) error
}

// CycleSinkFunc adapts a plain function to a CycleSink.
type CycleSinkFunc func(c *Cycle) error

// Cycle implements CycleSink.
func (f CycleSinkFunc) Cycle(c *Cycle) error { return f(c) }

// appendSink copies every emitted cycle into a Trace.
type appendSink struct{ tr *Trace }

func (a appendSink) Cycle(c *Cycle) error {
	*a.tr = append(*a.tr, *c)
	return nil
}

// AppendTo returns a sink that appends every cycle record to tr — the
// materializing adapter Run and RunProgram are built on.
func AppendTo(tr *Trace) CycleSink { return appendSink{tr} }

// CtxCheckInterval is how often (in cycles) the streaming run loop polls
// its context for cancellation. The check is amortized — a power-of-two
// mask test plus, every interval, one non-blocking channel receive — so
// the //emsim:noalloc contract of the cycle loop is unaffected, and a
// cancelled run stops within at most this many further cycles. At
// simulation speeds of millions of cycles per second that bounds the
// cancellation latency to well under a millisecond.
const CtxCheckInterval = 1024

// ctxCheckMask implements the modulo test; CtxCheckInterval must stay a
// power of two.
const ctxCheckMask = CtxCheckInterval - 1

// RunTo steps the core until it halts, delivering each cycle record to
// sink. It fails if MaxCycles elapse first. The record passed to the sink
// is reused between cycles (see CycleSink), which makes a steady-state
// run allocation-free: nothing per-cycle is retained unless the sink
// chooses to.
//
//emsim:noalloc
func (c *CPU) RunTo(sink CycleSink) error {
	//emsim:ignore noalloc context.Background returns the shared static empty context
	return c.RunToContext(context.Background(), sink)
}

// RunToContext is RunTo with cancellation: the run aborts with ctx.Err()
// when the context is cancelled or its deadline passes, checked every
// CtxCheckInterval cycles so a serving layer can stop an in-flight
// simulation without waiting for it to halt on its own. A context that
// can never be cancelled (context.Background) costs a single nil check
// per cycle.
//
//emsim:noalloc
func (c *CPU) RunToContext(ctx context.Context, sink CycleSink) error {
	//emsim:ignore noalloc Done is an interface call on the caller's context; it returns a channel, not heap state owned by this run
	done := ctx.Done()
	for !c.halted {
		if done != nil && c.cycle&ctxCheckMask == 0 {
			select {
			case <-done:
				//emsim:ignore noalloc cold cancellation path: the run is aborting
				return ctx.Err()
			default:
			}
		}
		if c.cycle >= c.cfg.MaxCycles {
			//emsim:ignore noalloc cold failure path: the run is aborting
			return fmt.Errorf("cpu: program exceeded %d cycles without halting", c.cfg.MaxCycles)
		}
		if err := c.StepInto(&c.scratch); err != nil {
			return err
		}
		//emsim:ignore noalloc dynamic dispatch by design; every in-tree sink is itself annotated noalloc
		if err := sink.Cycle(&c.scratch); err != nil {
			return err
		}
	}
	return nil
}

// RunProgramTo is the streaming form of RunProgram: it fully resets the
// machine, loads words at the reset vector and runs to completion,
// handing every cycle to sink instead of accumulating a Trace. Repeated
// calls on one core reuse its memory pages, cache arrays and cycle
// scratch record, so same-shaped reruns allocate nothing.
//
//emsim:noalloc
func (c *CPU) RunProgramTo(words []uint32, sink CycleSink) error {
	//emsim:ignore noalloc context.Background returns the shared static empty context
	return c.RunProgramToContext(context.Background(), words, sink)
}

// RunProgramToContext is RunProgramTo with the cancellation semantics of
// RunToContext.
//
//emsim:noalloc
func (c *CPU) RunProgramToContext(ctx context.Context, words []uint32, sink CycleSink) error {
	c.Reset()
	c.LoadProgram(c.cfg.ResetVector, words)
	return c.RunToContext(ctx, sink)
}
