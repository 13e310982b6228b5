package emsim

// The golden-signal regression corpus: small fixture programs plus
// their expected reconstructed signals, simulated with a checked-in
// trained model (testdata/golden/model.json) so no training happens at
// test time and every parameter in the trace→amplitude→signal path is
// pinned. Any refactor of the pipeline — the streaming session, the
// amplitude model, the reconstruction kernel — is diffable end to end:
// a behavioral change fails the RMS comparator, and an intentional
// change regenerates the corpus with
//
//	go test -run TestGoldenSignals -update ./...
//
// (delete testdata/golden/model.json first to also retrain the model).

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"testing"
)

var updateGolden = flag.Bool("update", false, "regenerate the golden-signal corpus (and train its model if missing)")

const (
	goldenDir        = "testdata/golden"
	goldenModelPath  = goldenDir + "/model.json"
	goldenReportPath = goldenDir + "/defend_shuffle.json"
	// goldenRMSTol is the relative RMS error the comparator accepts.
	// Simulation is deterministic; the headroom covers only the decimal
	// round trip through the .sig files and cross-platform FP fusion.
	goldenRMSTol = 1e-6
)

// goldenTrainOptions is the deterministic campaign that produced
// testdata/golden/model.json (the starved-but-usable configuration of
// the budget study). TestGoldenModelRetrains checks that it still does;
// -update with the model file deleted retrains from it.
func goldenTrainOptions() TrainOptions {
	return TrainOptions{
		Runs:                3,
		InstancesPerCluster: 10,
		MixedPrograms:       2,
		MixedLength:         200,
		Seed:                7,
	}
}

func goldenModel(t *testing.T) *Model {
	t.Helper()
	if _, err := os.Stat(goldenModelPath); os.IsNotExist(err) {
		if !*updateGolden {
			t.Fatalf("%s missing; run go test -run TestGoldenSignals -update", goldenModelPath)
		}
		dev := NewDevice(DefaultDeviceOptions())
		m, err := Train(dev, goldenTrainOptions())
		if err != nil {
			t.Fatalf("training golden model: %v", err)
		}
		if err := os.MkdirAll(goldenDir, 0o755); err != nil {
			t.Fatal(err)
		}
		if err := m.SaveFile(goldenModelPath); err != nil {
			t.Fatal(err)
		}
		t.Logf("trained and saved %s", goldenModelPath)
	}
	m, err := LoadModelFile(goldenModelPath)
	if err != nil {
		t.Fatalf("loading golden model: %v", err)
	}
	return m
}

// goldenPrograms lists the corpus fixtures (testdata/golden/<name>.s,
// expected signal in <name>.sig).
func goldenPrograms(t *testing.T) []string {
	t.Helper()
	matches, err := filepath.Glob(goldenDir + "/*.s")
	if err != nil {
		t.Fatal(err)
	}
	if len(matches) == 0 {
		t.Fatalf("no fixture programs under %s", goldenDir)
	}
	sort.Strings(matches)
	names := make([]string, len(matches))
	for i, m := range matches {
		names[i] = strings.TrimSuffix(filepath.Base(m), ".s")
	}
	return names
}

// relativeRMS is the corpus comparator: RMS of the sample-wise error,
// normalized by the expected signal's RMS so the tolerance is scale-free.
func relativeRMS(got, want []float64) (float64, error) {
	if len(got) != len(want) {
		return math.Inf(1), fmt.Errorf("length mismatch: got %d samples, want %d", len(got), len(want))
	}
	var errSq, refSq float64
	for i := range want {
		d := got[i] - want[i]
		errSq += d * d
		refSq += want[i] * want[i]
	}
	if refSq == 0 {
		if errSq == 0 {
			return 0, nil
		}
		return math.Inf(1), fmt.Errorf("expected signal is all-zero but got is not")
	}
	return math.Sqrt(errSq/float64(len(want))) / math.Sqrt(refSq/float64(len(want))), nil
}

func readSignalFile(path string) ([]float64, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var sig []float64
	for i, line := range strings.Split(strings.TrimSpace(string(data)), "\n") {
		line = strings.TrimSpace(line)
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		v, err := strconv.ParseFloat(line, 64)
		if err != nil {
			return nil, fmt.Errorf("%s:%d: %v", path, i+1, err)
		}
		sig = append(sig, v)
	}
	return sig, nil
}

func writeSignalFile(path string, sig []float64) error {
	var b strings.Builder
	fmt.Fprintf(&b, "# golden reconstructed signal: %d samples\n", len(sig))
	for _, v := range sig {
		fmt.Fprintf(&b, "%.12e\n", v)
	}
	return os.WriteFile(path, []byte(b.String()), 0o644)
}

func simulateFixture(t *testing.T, m *Model, name string) []float64 {
	t.Helper()
	src, err := os.ReadFile(filepath.Join(goldenDir, name+".s"))
	if err != nil {
		t.Fatal(err)
	}
	prog, err := Assemble(string(src))
	if err != nil {
		t.Fatalf("%s: assemble: %v", name, err)
	}
	sess, err := NewSession(m, DefaultCPUConfig())
	if err != nil {
		t.Fatal(err)
	}
	sig, err := sess.SimulateProgram(prog.Words)
	if err != nil {
		t.Fatalf("%s: simulate: %v", name, err)
	}
	return sig
}

// TestGoldenSignals is the corpus gate: every fixture's reconstructed
// signal must match its checked-in expectation within the RMS tolerance.
func TestGoldenSignals(t *testing.T) {
	m := goldenModel(t)
	for _, name := range goldenPrograms(t) {
		t.Run(name, func(t *testing.T) {
			got := simulateFixture(t, m, name)
			sigPath := filepath.Join(goldenDir, name+".sig")
			if *updateGolden {
				if err := writeSignalFile(sigPath, got); err != nil {
					t.Fatal(err)
				}
				t.Logf("wrote %s (%d samples)", sigPath, len(got))
				return
			}
			want, err := readSignalFile(sigPath)
			if err != nil {
				t.Fatalf("reading expectation: %v (run -update to regenerate)", err)
			}
			rms, err := relativeRMS(got, want)
			if err != nil {
				t.Fatalf("%v (run -update if this change is intentional)", err)
			}
			if rms > goldenRMSTol {
				t.Errorf("relative RMS error %.3e exceeds %.0e (run -update if this change is intentional)",
					rms, goldenRMSTol)
			}
		})
	}
}

// TestGoldenModelRetrains pins training itself: the golden campaign
// must still reproduce the checked-in model byte for byte. A change to
// capture, extraction or fitting that claims to need no reseed is
// checked here rather than asserted.
func TestGoldenModelRetrains(t *testing.T) {
	if *updateGolden {
		t.Skip("corpus being regenerated")
	}
	want, err := os.ReadFile(goldenModelPath)
	if err != nil {
		t.Fatal(err)
	}
	m, err := Train(NewDevice(DefaultDeviceOptions()), goldenTrainOptions())
	if err != nil {
		t.Fatalf("training golden model: %v", err)
	}
	var got bytes.Buffer
	if err := m.Save(&got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), want) {
		gotLines, wantLines := strings.Split(got.String(), "\n"), strings.Split(string(want), "\n")
		for i := 0; i < len(gotLines) && i < len(wantLines); i++ {
			if gotLines[i] != wantLines[i] {
				t.Fatalf("retrained model differs from %s at line %d: got %q, want %q",
					goldenModelPath, i+1, gotLines[i], wantLines[i])
			}
		}
		t.Fatalf("retrained model differs from %s in length: %d vs %d lines",
			goldenModelPath, len(gotLines), len(wantLines))
	}
}

// TestGoldenSecurityReport pins the defend pipeline end to end: a small
// shuffle campaign on the golden model must reproduce the checked-in
// SecurityReport JSON byte for byte, at one worker and at two. A CPA
// step of 30 puts the key-rank snapshots at 30, 60 and 90 traces
// mid-way through a trace block of the streaming accumulator. -update
// rewrites the file.
func TestGoldenSecurityReport(t *testing.T) {
	m := goldenModel(t)
	spec, err := ParseDefenseSpec("shuffle")
	if err != nil {
		t.Fatal(err)
	}
	want, err := os.ReadFile(goldenReportPath)
	if err != nil && !*updateGolden {
		t.Fatalf("reading expectation: %v (run -update to regenerate)", err)
	}
	for _, workers := range []int{1, 2} {
		rep, err := EvaluateDefense(context.Background(), DefendOptions{
			Model:      m,
			Defense:    spec,
			Seed:       1,
			Workers:    workers,
			TVLATraces: 16,
			CPATraces:  120,
			CPAStep:    30,
		})
		if err != nil {
			t.Fatalf("%d workers: %v", workers, err)
		}
		got, err := json.MarshalIndent(rep, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		got = append(got, '\n')
		if *updateGolden && workers == 1 {
			if err := os.WriteFile(goldenReportPath, got, 0o644); err != nil {
				t.Fatal(err)
			}
			t.Logf("wrote %s", goldenReportPath)
			want = got
		}
		if !bytes.Equal(got, want) {
			t.Errorf("%d workers: report differs from %s (run -update if this change is intentional):\n%s",
				workers, goldenReportPath, got)
		}
	}
}

// TestGoldenSignalsCatchBreakage is the deliberate-break test the
// acceptance criteria require: perturbing the reconstruction kernel by
// 1% must fail the comparator on every fixture — proof the corpus
// actually guards the signal path rather than vacuously passing.
func TestGoldenSignalsCatchBreakage(t *testing.T) {
	if *updateGolden {
		t.Skip("corpus being regenerated")
	}
	m := goldenModel(t)
	broken := *m // the model is plain data; a shallow copy is a variant
	broken.Kernel.Theta *= 1.01
	for _, name := range goldenPrograms(t) {
		t.Run(name, func(t *testing.T) {
			got := simulateFixture(t, &broken, name)
			want, err := readSignalFile(filepath.Join(goldenDir, name+".sig"))
			if err != nil {
				t.Fatal(err)
			}
			rms, err := relativeRMS(got, want)
			if err != nil {
				return // length change: the comparator caught it
			}
			if rms <= goldenRMSTol {
				t.Errorf("1%% kernel perturbation passed the comparator (relative RMS %.3e); the corpus is not protective", rms)
			}
		})
	}
}
