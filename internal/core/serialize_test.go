package core

import (
	"bytes"
	"math"
	"os"
	"strings"
	"testing"

	"emsim/internal/asm"
	"emsim/internal/cpu"
)

// The pinned golden-corpus model and one of its fixture programs: a
// realistic model file and a program touching every stage class.
const (
	goldenModelFile   = "../../testdata/golden/model.json"
	goldenProgramFile = "../../testdata/golden/mixed.s"
)

func readGolden(t testing.TB) (model []byte, words []uint32) {
	t.Helper()
	model, err := os.ReadFile(goldenModelFile)
	if err != nil {
		t.Fatal(err)
	}
	src, err := os.ReadFile(goldenProgramFile)
	if err != nil {
		t.Fatal(err)
	}
	prog, err := asm.Assemble(string(src))
	if err != nil {
		t.Fatal(err)
	}
	return model, prog.Words
}

// mutatedModel loads the golden model, applies edit and returns the
// re-encoded file.
func mutatedModel(t testing.TB, golden []byte, edit func(m *Model)) []byte {
	t.Helper()
	m, err := LoadModel(bytes.NewReader(golden))
	if err != nil {
		t.Fatal(err)
	}
	edit(m)
	var buf bytes.Buffer
	if err := m.Save(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// hostileSupport and hugeAmpRow are the two inputs that used to get
// through LoadModel: a 1<<50-cycle kernel made it panic sizing the tap
// table, and a 1e308 amplitude row loaded cleanly, then rendered the
// mixed fixture to mostly non-finite samples.
func hostileSupport(m *Model) { m.Kernel.SupportCycles = 1 << 50 }

func hugeAmpRow(m *Model) {
	for s := range m.Amp[0] {
		m.Amp[0][s] = 1e308
	}
}

// simulateFinite simulates words with m and fails on an error or on any
// non-finite sample.
func simulateFinite(t *testing.T, m *Model, words []uint32) {
	t.Helper()
	_, y, err := m.SimulateProgram(cpu.DefaultConfig(), words)
	if err != nil {
		t.Fatalf("loaded model failed to simulate: %v", err)
	}
	for i, v := range y {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			t.Fatalf("loaded model rendered sample %d as %v", i, v)
		}
	}
}

// unboundedModels are golden-model edits LoadModel must reject: sizes
// past the geometry caps, and parameters whose worst-case rendered
// sample is not finite.
var unboundedModels = []struct {
	name string
	edit func(m *Model)
}{
	{"kernel support 1<<50", hostileSupport},
	{"kernel support past cap", func(m *Model) { m.Kernel.SupportCycles = maxSupportCycles + 1 }},
	{"samples per cycle past cap", func(m *Model) { m.SamplesPerCycle = maxSamplesPerCycle + 1 }},
	{"amplitude row 1e308", hugeAmpRow},
	{"subnormal kernel period", func(m *Model) { m.Kernel.Period = 5e-324 }},
	{"huge MISO weight", func(m *Model) { m.MISO[cpu.EX] = 1e308 }},
	{"huge activity coefficient", func(m *Model) {
		m.Activity[cpu.EX].Selected = []int{0}
		m.Activity[cpu.EX].Coef = []float64{1e308}
	}},
	{"huge beta", func(m *Model) { m.Beta = &[cpu.NumStages]float64{1, 1, 1e308, 1, 1} }},
	{"huge single-source weight", func(m *Model) { m.SingleM = 1e308 }},
}

// FuzzLoadModel is the model-file trust boundary: any input either fails
// to load or yields a model that simulates a fixed program to finite
// output. The seeds are the golden model and the two inputs LoadModel
// used to let through.
func FuzzLoadModel(f *testing.F) {
	golden, words := readGolden(f)
	f.Add(golden)
	f.Add(mutatedModel(f, golden, hostileSupport))
	f.Add(mutatedModel(f, golden, hugeAmpRow))
	f.Fuzz(func(t *testing.T, data []byte) {
		m, err := LoadModel(bytes.NewReader(data))
		if err != nil {
			return
		}
		simulateFinite(t, m, words)
	})
}

// TestLoadOrTrainFile pins the model-cache rule the CLIs share: train
// and save only when no file exists, load a valid file without
// training, and refuse a file that exists but does not load, naming the
// path and leaving its bytes alone.
func TestLoadOrTrainFile(t *testing.T) {
	golden, _ := readGolden(t)
	calls := 0
	train := func() (*Model, error) {
		calls++
		return LoadModel(bytes.NewReader(golden))
	}

	t.Run("missing", func(t *testing.T) {
		calls = 0
		path := t.TempDir() + "/model.json"
		m, trained, err := LoadOrTrainFile(path, train)
		if err != nil || m == nil || !trained || calls != 1 {
			t.Fatalf("got model %v, trained %v, err %v after %d train calls; want a trained model after 1", m != nil, trained, err, calls)
		}
		if _, err := LoadModelFile(path); err != nil {
			t.Errorf("trained model not saved: %v", err)
		}
	})

	t.Run("valid", func(t *testing.T) {
		calls = 0
		path := t.TempDir() + "/model.json"
		if err := os.WriteFile(path, golden, 0o644); err != nil {
			t.Fatal(err)
		}
		m, trained, err := LoadOrTrainFile(path, train)
		if err != nil || m == nil || trained || calls != 0 {
			t.Fatalf("got model %v, trained %v, err %v after %d train calls; want the file's model, untrained", m != nil, trained, err, calls)
		}
	})

	t.Run("unreadable", func(t *testing.T) {
		calls = 0
		path := t.TempDir() + "/model.json"
		bad := []byte(`{"version": 99, "model": null}`)
		if err := os.WriteFile(path, bad, 0o644); err != nil {
			t.Fatal(err)
		}
		m, _, err := LoadOrTrainFile(path, train)
		if err == nil || m != nil || calls != 0 {
			t.Fatalf("got model %v, err %v after %d train calls; want an error and no training", m != nil, err, calls)
		}
		if !strings.Contains(err.Error(), path) {
			t.Errorf("error %q does not name %s", err, path)
		}
		if got, err := os.ReadFile(path); err != nil || !bytes.Equal(got, bad) {
			t.Errorf("file changed to %q (%v); want it left as it was", got, err)
		}
	})
}
