package core

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"emsim/internal/cpu"
	"emsim/internal/device"
)

// Reproducibility guarantees. A library whose training walks Go maps in
// iteration order would produce a different model on every run with the
// same seed — poison for the paper's "ship the board's parameters"
// workflow and for every recorded number in EXPERIMENTS.md. These tests
// pin the guarantee down at the strongest level available: byte-identical
// serialized models and sample-identical simulations.

// smallCampaign is a deliberately starved training configuration: the
// budget study (EXPERIMENTS.md E19) shows it still trains a usable model,
// and it keeps the double-training test fast.
func smallCampaign() TrainOptions {
	return TrainOptions{
		Runs:                3,
		InstancesPerCluster: 10,
		MixedPrograms:       2,
		MixedLength:         200,
		Seed:                7,
	}
}

func TestTrainingIsDeterministic(t *testing.T) {
	if testing.Short() {
		t.Skip("trains twice")
	}
	trainJSON := func() []byte {
		dev := device.MustNew(device.DefaultOptions())
		m, err := Train(dev, smallCampaign())
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := m.Save(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	a, b := trainJSON(), trainJSON()
	if !bytes.Equal(a, b) {
		t.Errorf("two trainings with identical seeds serialized differently (%d vs %d bytes)",
			len(a), len(b))
	}
}

// TestDefaultCampaignModelsPinned pins the models of the default
// campaign, the one every command trains: at seeds 1 to 4, with 1, 2 and
// 4 workers, the saved model's SHA-256 must be the one recorded here.
// Seeds 1 and 3 select the full 80 activity bits of MaxActivityBits,
// which the golden campaign never reaches. A change that moves any bit of
// these models must update the hashes on purpose, as a reseed.
func TestDefaultCampaignModelsPinned(t *testing.T) {
	if testing.Short() {
		t.Skip("trains twelve default campaigns")
	}
	want := []string{ // by seed, from 1
		"56fce33ceb1af839d7a8d687d8aa59a00c29ceb2ea546e84b622580f47111074",
		"f7af25ebb90a029be03dd0ef7d3ebc768ab0ccc2ff2cf27e4c78a61233f67cfd",
		"b4a1366dc071205f2845908f5aa815f6c85e35677ac1cac1f75928930d2d4ec9",
		"eb6544c2e11a002d951b5c732bc76772bc776b5ebc6237a331c597d52164b5dc",
	}
	for i, hash := range want {
		seed := int64(i + 1)
		for _, workers := range []int{1, 2, 4} {
			m, err := Train(device.MustNew(device.DefaultOptions()), TrainOptions{Seed: seed, Workers: workers})
			if err != nil {
				t.Fatal(err)
			}
			var buf bytes.Buffer
			if err := m.Save(&buf); err != nil {
				t.Fatal(err)
			}
			if got := fmt.Sprintf("%x", sha256.Sum256(buf.Bytes())); got != hash {
				t.Errorf("seed %d, %d workers: model SHA-256 %s, pinned %s", seed, workers, got, hash)
			}
		}
	}
}

func TestSimulationIsDeterministic(t *testing.T) {
	m, _ := testModel(t)
	rng := rand.New(rand.NewSource(42))
	words, err := MixedProgram(rng, 300)
	if err != nil {
		t.Fatal(err)
	}
	_, sig1, err := m.SimulateProgram(cpu.DefaultConfig(), words)
	if err != nil {
		t.Fatal(err)
	}
	_, sig2, err := m.SimulateProgram(cpu.DefaultConfig(), words)
	if err != nil {
		t.Fatal(err)
	}
	if len(sig1) != len(sig2) {
		t.Fatalf("lengths differ: %d vs %d", len(sig1), len(sig2))
	}
	for i := range sig1 {
		if sig1[i] != sig2[i] {
			t.Fatalf("sample %d differs: %g vs %g", i, sig1[i], sig2[i])
		}
	}
}

func TestSaveLoadPreservesSimulation(t *testing.T) {
	// The serialized form must capture everything the simulation path
	// reads: a loaded model must produce bit-identical signals.
	m, _ := testModel(t)
	var buf bytes.Buffer
	if err := m.Save(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadModel(&buf)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(43))
	words, err := MixedProgram(rng, 250)
	if err != nil {
		t.Fatal(err)
	}
	_, want, err := m.SimulateProgram(cpu.DefaultConfig(), words)
	if err != nil {
		t.Fatal(err)
	}
	_, got, err := loaded.SimulateProgram(cpu.DefaultConfig(), words)
	if err != nil {
		t.Fatal(err)
	}
	for i := range want {
		if want[i] != got[i] {
			t.Fatalf("sample %d differs after save/load: %g vs %g", i, want[i], got[i])
		}
	}
}

func TestAttributionInvariants(t *testing.T) {
	// Properties that must hold for the attribution of ANY program:
	// stage shares form a distribution, per-instruction aggregates are
	// non-negative and internally consistent, and instruction totals
	// never exceed the trace's total attributable energy.
	m, _ := testModel(t)
	check := func(seed int64) bool {
		words, err := MixedProgram(rand.New(rand.NewSource(seed)), 150)
		if err != nil {
			return false
		}
		c := cpu.MustNew(cpu.DefaultConfig())
		tr, err := c.RunProgram(words)
		if err != nil {
			return false
		}
		att := m.Attribute(tr)
		sum := 0.0
		for _, s := range att.StageShare {
			if s < 0 || s > 1 {
				return false
			}
			sum += s
		}
		if math.Abs(sum-1) > 1e-9 {
			return false
		}
		instSum := 0.0
		for i := range att.Instructions {
			ia := &att.Instructions[i]
			if ia.Total < 0 || ia.Peak < 0 || ia.Peak > ia.Total+1e-12 {
				return false
			}
			if ia.Cycles <= 0 || ia.Executions <= 0 || ia.Executions > ia.Cycles {
				return false
			}
			if ia.Mean() > ia.Peak+1e-12 {
				return false
			}
			// Sorted strongest-first.
			if i > 0 && att.Instructions[i-1].Total < ia.Total {
				return false
			}
			instSum += ia.Total
		}
		// Instruction totals only count unstalled occupancy cycles, so
		// they are a lower-bound decomposition of the trace total.
		return instSum <= att.TotalAbs+1e-9
	}
	if err := quick.Check(func(s int64) bool {
		if s < 0 {
			s = -s
		}
		return check(s%(1<<30) + 1)
	}, &quick.Config{MaxCount: 12}); err != nil {
		t.Errorf("attribution invariant violated: %v", err)
	}
}

func TestAttributionOrderIsDeterministic(t *testing.T) {
	// Regression: the per-instruction table was built by ranging over a
	// map and sorted unstably, so instructions with equal totals could
	// swap places between runs. Repeated attributions of the same trace
	// must now produce the identical instruction sequence.
	m, _ := testModel(t)
	words, err := MixedProgram(rand.New(rand.NewSource(7)), 150)
	if err != nil {
		t.Fatal(err)
	}
	c := cpu.MustNew(cpu.DefaultConfig())
	tr, err := c.RunProgram(words)
	if err != nil {
		t.Fatal(err)
	}
	want := m.Attribute(tr)
	for rep := 0; rep < 5; rep++ {
		got := m.Attribute(tr)
		if len(got.Instructions) != len(want.Instructions) {
			t.Fatalf("rep %d: %d instructions, want %d", rep, len(got.Instructions), len(want.Instructions))
		}
		for i := range want.Instructions {
			if got.Instructions[i] != want.Instructions[i] {
				t.Fatalf("rep %d: instruction %d differs: %+v vs %+v",
					rep, i, got.Instructions[i], want.Instructions[i])
			}
		}
	}
}
