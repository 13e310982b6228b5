package cpu

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"emsim/internal/isa"
)

// streamProgram is a small workload that exercises every stateful unit a
// Reset must restore: register file, branch predictor (warmed loop
// branch), data cache (hit + miss lines) and data memory (stores).
func streamProgram(t testing.TB) []uint32 {
	t.Helper()
	var prog []isa.Inst
	prog = append(prog, isa.Li(isa.S0, 0x2000)...)
	prog = append(prog, isa.Li(isa.T0, 6)...)
	prog = append(prog,
		// loop: store, reload (hit), touch a far line (miss), decrement.
		isa.Sw(isa.T0, isa.S0, 0),
		isa.Lw(isa.T1, isa.S0, 0),
		isa.Lw(isa.T2, isa.S0, 0x400),
		isa.Mul(isa.T3, isa.T0, isa.T1),
		isa.Addi(isa.S0, isa.S0, 4),
		isa.Addi(isa.T0, isa.T0, -1),
		isa.Bne(isa.T0, isa.Zero, -24),
		isa.Ebreak(),
	)
	return asm(t, prog...)
}

// TestRunProgramToMatchesRunProgram pins the tentpole equivalence at the
// cpu layer: the streaming sink path must deliver exactly the cycle
// records the materializing path returns.
func TestRunProgramToMatchesRunProgram(t *testing.T) {
	words := streamProgram(t)

	want, err := MustNew(DefaultConfig()).RunProgram(words)
	if err != nil {
		t.Fatal(err)
	}

	var got Trace
	n := 0
	sink := CycleSinkFunc(func(c *Cycle) error {
		if c.N != n {
			t.Fatalf("cycle %d delivered out of order (N=%d)", n, c.N)
		}
		n++
		got = append(got, *c)
		return nil
	})
	if err := MustNew(DefaultConfig()).RunProgramTo(words, sink); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(want, got) {
		t.Fatalf("streaming trace differs from materialized trace (%d vs %d cycles)", len(want), len(got))
	}
}

func TestRunToSinkErrorAborts(t *testing.T) {
	words := streamProgram(t)
	c := MustNew(DefaultConfig())
	wantErr := fmt.Errorf("stop here")
	seen := 0
	err := c.RunProgramTo(words, CycleSinkFunc(func(*Cycle) error {
		seen++
		if seen == 5 {
			return wantErr
		}
		return nil
	}))
	if err != wantErr {
		t.Fatalf("got err %v, want the sink's error", err)
	}
	if seen != 5 {
		t.Fatalf("sink saw %d cycles after aborting at 5", seen)
	}
}

// TestRunAfterResetBitIdentical is the Session-enabling regression test:
// a core that already ran a different program (dirty registers,
// predictor history, cache contents, memory stores) and is then reused
// via RunProgram must produce a run bit-identical to a factory-fresh
// core — trace records, statistics, architectural registers and all.
func TestRunAfterResetBitIdentical(t *testing.T) {
	first := streamProgram(t)
	r := rand.New(rand.NewSource(99))
	second := asm(t, randProgram(r, 150)...)

	dirty := MustNew(DefaultConfig())
	if _, err := dirty.RunProgram(first); err != nil {
		t.Fatal(err)
	}
	got, err := dirty.RunProgram(second) // RunProgram resets the machine
	if err != nil {
		t.Fatal(err)
	}

	fresh := MustNew(DefaultConfig())
	want, err := fresh.RunProgram(second)
	if err != nil {
		t.Fatal(err)
	}

	if !reflect.DeepEqual(want, got) {
		t.Fatalf("run after reset diverged from fresh core (%d vs %d cycles)", len(want), len(got))
	}
	if ws, gs := fresh.Stats(), dirty.Stats(); ws != gs {
		t.Fatalf("stats after reset diverged: fresh %+v, reused %+v", ws, gs)
	}
	for rg := isa.Reg(0); rg < isa.NumRegs; rg++ {
		if fresh.Reg(rg) != dirty.Reg(rg) {
			t.Fatalf("reg %v diverged after reset: fresh %#x, reused %#x", rg, fresh.Reg(rg), dirty.Reg(rg))
		}
	}
	if fresh.Halted() != dirty.Halted() || fresh.PC() != dirty.PC() {
		t.Fatal("front-end state diverged after reset")
	}
}

// TestStreamingRerunsAllocateNothing pins the zero-allocation property of
// the streaming hot path: once buffers are warm, a full
// reset-load-run-stream cycle must not allocate.
func TestStreamingRerunsAllocateNothing(t *testing.T) {
	words := streamProgram(t)
	c := MustNew(DefaultConfig())
	sink := CycleSinkFunc(func(*Cycle) error { return nil })
	if err := c.RunProgramTo(words, sink); err != nil { // warm memory pages
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(20, func() {
		if err := c.RunProgramTo(words, sink); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 0 {
		t.Errorf("steady-state streaming rerun allocates %.1f times per run, want 0", allocs)
	}
}

func BenchmarkRunProgramStreaming(b *testing.B) {
	words := streamProgram(b)
	c := MustNew(DefaultConfig())
	sink := CycleSinkFunc(func(*Cycle) error { return nil })
	cycles := 0
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := c.RunProgramTo(words, sink); err != nil {
			b.Fatal(err)
		}
		cycles += c.CycleCount()
	}
	b.StopTimer()
	if b.Elapsed() > 0 {
		b.ReportMetric(float64(cycles)/b.Elapsed().Seconds(), "cycles/s")
	}
}

func BenchmarkRunProgramMaterialized(b *testing.B) {
	words := streamProgram(b)
	c := MustNew(DefaultConfig())
	cycles := 0
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tr, err := c.RunProgram(words)
		if err != nil {
			b.Fatal(err)
		}
		cycles += len(tr)
	}
	b.StopTimer()
	if b.Elapsed() > 0 {
		b.ReportMetric(float64(cycles)/b.Elapsed().Seconds(), "cycles/s")
	}
}
