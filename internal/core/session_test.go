package core

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"testing"

	"emsim/internal/aes"
	"emsim/internal/cpu"
)

// sessionGoldenPrograms spans the three workload families the acceptance
// criteria name: the mixed evaluation programs, a full AES-128 encryption
// and a §V-A combination-group stream.
func sessionGoldenPrograms(t *testing.T) map[string][]uint32 {
	t.Helper()
	rng := rand.New(rand.NewSource(42))
	mixed, err := MixedProgram(rng, 300)
	if err != nil {
		t.Fatal(err)
	}
	aesProg, err := aes.BuildProgram(
		[16]byte{0x2b, 0x7e, 0x15, 0x16, 0x28, 0xae, 0xd2, 0xa6, 0xab, 0xf7, 0x15, 0x88, 0x09, 0xcf, 0x4f, 0x3c},
		[16]byte{0x32, 0x43, 0xf6, 0xa8, 0x88, 0x5a, 0x30, 0x8d, 0x31, 0x31, 0x98, 0xa2, 0xe0, 0x37, 0x07, 0x34},
	)
	if err != nil {
		t.Fatal(err)
	}
	group, err := CombinationGroup(3, rng, true)
	if err != nil {
		t.Fatal(err)
	}
	return map[string][]uint32{
		"mixed": mixed,
		"aes":   aesProg.Words,
		"group": group,
	}
}

// naiveRender is the test-side reference for Equ. 6/9, built without
// Session or Reconstructor: the program runs through cpu.RunProgram, the
// model predicts each recorded cycle's amplitude, and a fresh buffer
// superposes one kernel instance per cycle in cycle-major, tap-minor
// order (exactly-zero amplitudes skipped), tail truncated at the last
// cycle.
func naiveRender(t *testing.T, m *Model, cfg cpu.Config, words []uint32) (cpu.Trace, []float64) {
	t.Helper()
	tr, err := cpu.MustNew(cfg).RunProgram(words)
	if err != nil {
		t.Fatal(err)
	}
	spc := m.SamplesPerCycle
	taps, err := m.Kernel.Taps(spc)
	if err != nil {
		t.Fatal(err)
	}
	n := len(tr) * spc
	out := make([]float64, n)
	for c := range tr {
		amp := m.CycleAmplitude(&tr[c])
		if amp == 0 {
			continue
		}
		for i, tap := range taps {
			idx := c*spc + i
			if idx >= n {
				break
			}
			out[idx] += amp * tap
		}
	}
	return tr, out
}

func requireSameBits(t *testing.T, what string, got, want []float64) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d samples, want %d", what, len(got), len(want))
	}
	for i := range want {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Fatalf("%s: sample %d = %g, want %g (bit-exact)", what, i, got[i], want[i])
		}
	}
}

// TestSessionMatchesSimulateProgram is the tentpole golden test: the
// streaming Session pipeline and the one-shot Model.SimulateProgram must
// both reproduce the naive reference render bit for bit, across all
// workload families, with one Session reused for all of them back to
// back. SimulateProgram must also return cpu.RunProgram's trace.
func TestSessionMatchesSimulateProgram(t *testing.T) {
	m, _ := testModel(t)
	cfg := cpu.DefaultConfig()
	sess, err := m.NewSession(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Two passes: the second proves reuse after every workload is as good
	// as the first simulation of each.
	for pass := 0; pass < 2; pass++ {
		for name, words := range sessionGoldenPrograms(t) {
			wantTr, want := naiveRender(t, m, cfg, words)
			tr, oneShot, err := m.SimulateProgram(cfg, words)
			if err != nil {
				t.Fatalf("%s: SimulateProgram: %v", name, err)
			}
			if !reflect.DeepEqual(wantTr, tr) {
				t.Fatalf("pass %d %s: SimulateProgram trace differs from RunProgram (%d vs %d cycles)",
					pass, name, len(tr), len(wantTr))
			}
			requireSameBits(t, fmt.Sprintf("pass %d %s: SimulateProgram", pass, name), oneShot, want)
			got, err := sess.SimulateProgram(words)
			if err != nil {
				t.Fatalf("%s: session path: %v", name, err)
			}
			requireSameBits(t, fmt.Sprintf("pass %d %s: session", pass, name), got, want)
			if sess.Cycles() != len(tr) {
				t.Fatalf("pass %d %s: session reports %d cycles, trace has %d", pass, name, sess.Cycles(), len(tr))
			}
			if sess.Stats().Cycles != len(tr) {
				t.Fatalf("pass %d %s: stats cycles %d != %d", pass, name, sess.Stats().Cycles, len(tr))
			}
		}
	}
}

// TestSessionSimulateIntoSteadyStateAllocs pins the headline property:
// once warm, a full simulate (reset core, run, model every cycle, render
// the analog signal) allocates nothing.
func TestSessionSimulateIntoSteadyStateAllocs(t *testing.T) {
	m, _ := testModel(t)
	sess, err := m.NewSession(cpu.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	words := sessionGoldenPrograms(t)["mixed"]
	sig, err := sess.SimulateProgramInto(nil, words)
	if err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(10, func() {
		sig, err = sess.SimulateProgramInto(sig, words)
		if err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 0 {
		t.Errorf("steady-state SimulateProgramInto allocates %.1f times per trace, want 0", allocs)
	}
}

// TestCycleAmplitudeDoesNotAllocate pins Model.CycleAmplitude (and its
// contribution/ampKeyFor/stageSource helpers) directly, outside the
// Session pipeline: evaluating the model on every streamed cycle of a
// warm core must not allocate.
func TestCycleAmplitudeDoesNotAllocate(t *testing.T) {
	m, _ := testModel(t)
	c := cpu.MustNew(cpu.DefaultConfig())
	words := sessionGoldenPrograms(t)["mixed"]
	var sum float64
	sink := cpu.CycleSinkFunc(func(cy *cpu.Cycle) error {
		sum += m.CycleAmplitude(cy)
		return nil
	})
	if err := c.RunProgramTo(words, sink); err != nil { // warm memory pages
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(10, func() {
		if err := c.RunProgramTo(words, sink); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 0 {
		t.Errorf("warm CycleAmplitude streaming allocates %.1f times per run, want 0", allocs)
	}
	_ = sum
}

// TestSimulateBatchMatchesSequential checks the parallel fan-out returns
// exactly the sequential per-program signals, in input order, for several
// worker counts (run under -race this also exercises the fan-out for
// data races).
func TestSimulateBatchMatchesSequential(t *testing.T) {
	m, _ := testModel(t)
	cfg := cpu.DefaultConfig()
	rng := rand.New(rand.NewSource(9))
	var programs [][]uint32
	for i := 0; i < 12; i++ {
		w, err := MixedProgram(rng, 120+10*i)
		if err != nil {
			t.Fatal(err)
		}
		programs = append(programs, w)
	}
	sess, err := m.NewSession(cfg)
	if err != nil {
		t.Fatal(err)
	}
	want := make([][]float64, len(programs))
	for i, w := range programs {
		if want[i], err = sess.SimulateProgram(w); err != nil {
			t.Fatal(err)
		}
	}
	for _, workers := range []int{0, 1, 2, 7, 64} {
		got, err := sess.SimulateBatch(programs, workers)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if !reflect.DeepEqual(want, got) {
			t.Fatalf("workers=%d: batch results differ from sequential", workers)
		}
	}
	if res, err := sess.SimulateBatch(nil, 4); err != nil || res != nil {
		t.Fatalf("empty batch: got (%v, %v), want (nil, nil)", res, err)
	}
}

// TestSimulateBatchPropagatesError checks a failing program aborts the
// batch with a located error instead of returning partial results.
func TestSimulateBatchPropagatesError(t *testing.T) {
	m, _ := testModel(t)
	cfg := cpu.DefaultConfig()
	cfg.MaxCycles = 50 // everything times out
	sess, err := m.NewSession(cfg)
	if err != nil {
		t.Fatal(err)
	}
	words := sessionGoldenPrograms(t)["mixed"]
	if _, err := sess.SimulateBatch([][]uint32{words, words}, 2); err == nil {
		t.Fatal("batch with impossible cycle budget succeeded")
	}
}
