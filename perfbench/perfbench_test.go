package main

import (
	"bytes"
	"context"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

var allWorkloads = []string{"defend", "train", "serve"}

// quickConfig is a minimal-size run of one workload.
func quickConfig(t *testing.T, workload string, trace, corrupt bool) config {
	return config{
		workload: workload, seed: 3, seconds: 0.01, trace: trace, root: "..",
		traceOut: filepath.Join(t.TempDir(), "trace.json"),
		workers:  2, quick: true, corrupt: corrupt,
	}
}

func TestEveryMetricIsReported(t *testing.T) {
	bf, err := loadBenchmarkFile("..")
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range allWorkloads {
		for _, trace := range []bool{false, true} {
			cfg := quickConfig(t, w, trace, false)
			name := w + "/untraced"
			specs := bf.EndToEnd
			if trace {
				name, specs = w+"/traced", bf.PerLayer
			}
			t.Run(name, func(t *testing.T) {
				var out bytes.Buffer
				res, err := execute(context.Background(), cfg, &out)
				if err != nil {
					t.Fatal(err)
				}
				if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
					t.Fatalf("correct=%v attempted=%d failed=%d", res.Correct, res.Attempted, res.Failed)
				}
				if len(res.Metrics) != len(specs) {
					t.Errorf("%d metrics printed, %d declared", len(res.Metrics), len(specs))
				}
				for _, s := range specs {
					v, ok := res.Metrics[s.Name]
					switch {
					case !ok:
						t.Errorf("metric %s missing", s.Name)
					case v.Unit != s.Unit:
						t.Errorf("metric %s has unit %q, want %q", s.Name, v.Unit, s.Unit)
					case math.IsNaN(v.Value) || math.IsInf(v.Value, 0):
						t.Errorf("metric %s = %v", s.Name, v.Value)
					case !trace && v.Value <= 0:
						t.Errorf("end-to-end metric %s = %v, want > 0", s.Name, v.Value)
					}
				}
				var env map[string]any
				header, _ := strings.CutPrefix(strings.SplitN(out.String(), "\n", 2)[0], "# env ")
				if err := json.Unmarshal([]byte(header), &env); err != nil {
					t.Fatalf("environment header %q: %v", header, err)
				}
				for _, k := range []string{"go", "gomaxprocs", "nproc", "cpu", "commit", "seed"} {
					if _, ok := env[k]; !ok {
						t.Errorf("environment header lacks %s", k)
					}
				}
				if trace {
					checkChromeTrace(t, cfg.traceOut)
				}
			})
		}
	}
}

// checkChromeTrace asserts the traced run wrote Chrome-trace JSON whose
// spans carry an id, a parent and an operation.
func checkChromeTrace(t *testing.T, path string) {
	t.Helper()
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []struct {
			Name string             `json:"name"`
			Ph   string             `json:"ph"`
			Dur  float64            `json:"dur"`
			Args map[string]float64 `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(b, &doc); err != nil {
		t.Fatalf("trace %s: %v", path, err)
	}
	if len(doc.TraceEvents) == 0 {
		t.Fatal("trace has no spans")
	}
	for _, e := range doc.TraceEvents {
		_, id := e.Args["id"]
		_, parent := e.Args["parent"]
		_, op := e.Args["op"]
		if e.Ph != "X" || e.Name == "" || e.Dur < 0 || !id || !parent || !op {
			t.Fatalf("malformed span %+v", e)
		}
	}
}

// TestCorruptedOutputIsCounted proves the correctness checks catch a
// wrong output: each workload corrupts one output on purpose.
func TestCorruptedOutputIsCounted(t *testing.T) {
	for _, w := range allWorkloads {
		t.Run(w, func(t *testing.T) {
			res, err := execute(context.Background(), quickConfig(t, w, false, true), &bytes.Buffer{})
			if err != nil {
				t.Fatal(err)
			}
			if res.Correct || res.Failed < 1 {
				t.Fatalf("corrupted output not counted: correct=%v failed=%d", res.Correct, res.Failed)
			}
		})
	}
}
