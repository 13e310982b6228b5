// Command perfbench is EMSim's layered benchmark. Each workload drives one
// user-visible flow through the public packages; an untraced run reports
// the end-to-end metrics declared in BENCHMARK.json and a traced run
// (-trace 1) reports the per-layer metrics. The last line of standard
// output is always one JSON result object. See README.md for the
// workload → layer → metric map.
//
// Run it from the repository root:
//
//	bash perfbench/run.sh --workload defend --seed 1 --seconds 36 --trace 0
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strings"
	"time"
)

// config is one benchmark invocation.
type config struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	root     string // repository root: BENCHMARK.json, testdata/ (run from it)
	traceOut string // Chrome-trace output of a traced run
	workers  int    // worker goroutines / closed-loop clients
	quick    bool   // minimal budgets (smoke test only)
	corrupt  bool   // deliberately corrupt one output (smoke test only)
}

// budget is a run's time box: timed loops repeat their operation until
// it expires.
func (c config) budget() time.Duration {
	return time.Duration(c.seconds * float64(time.Second))
}

// workloads maps each workload name to its untraced and traced runs.
var workloads = map[string]struct {
	run, traced func(context.Context, config, *report) error
}{
	"defend": {runDefend, tracedDefend},
	"train":  {runTrain, tracedTrain},
	"serve":  {runServe, tracedServe},
}

// metricSpec is one metric declared in BENCHMARK.json.
type metricSpec struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

// benchmarkFile is the part of BENCHMARK.json the program reads: the
// metric lists are the single source of names and units.
type benchmarkFile struct {
	EndToEnd []metricSpec `json:"end_to_end"`
	PerLayer []metricSpec `json:"per_layer"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the JSON object printed as the last line of standard output.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// report accumulates one run's operations and metric values.
type report struct {
	attempted, failed int
	values            map[string]float64
}

// op records one attempted operation; a non-nil err marks it failed
// (an error, or an output that failed its correctness check).
func (r *report) op(err error) {
	r.attempted++
	if err != nil {
		r.failed++
		fmt.Fprintf(os.Stderr, "perfbench: FAILED: %v\n", err)
	}
}

func (r *report) set(name string, v float64) { r.values[name] = v }

// finish builds the result over the declared metrics. Every value the run
// set must be declared, and every declared end-to-end metric must be set;
// a per-layer metric the workload does not exercise reads 0.
func (r *report) finish(specs []metricSpec, requireAll bool) (*result, error) {
	res := &result{
		Correct:   r.failed == 0,
		Attempted: r.attempted,
		Failed:    r.failed,
		Metrics:   map[string]metricValue{},
	}
	declared := map[string]bool{}
	for _, s := range specs {
		declared[s.Name] = true
		v, ok := r.values[s.Name]
		if !ok && requireAll {
			return nil, fmt.Errorf("metric %s was not measured", s.Name)
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return nil, fmt.Errorf("metric %s is not finite: %v", s.Name, v)
		}
		res.Metrics[s.Name] = metricValue{Value: v, Unit: s.Unit}
	}
	for name := range r.values {
		if !declared[name] {
			return nil, fmt.Errorf("metric %s is not declared in BENCHMARK.json", name)
		}
	}
	if r.attempted < 1 {
		return nil, errors.New("no operation was attempted")
	}
	return res, nil
}

func loadBenchmarkFile(root string) (*benchmarkFile, error) {
	b, err := os.ReadFile(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		return nil, err
	}
	var bf benchmarkFile
	if err := json.Unmarshal(b, &bf); err != nil {
		return nil, fmt.Errorf("BENCHMARK.json: %w", err)
	}
	return &bf, nil
}

// execute runs one workload and returns its result; the environment
// header and any tables go to out ahead of it.
func execute(ctx context.Context, cfg config, out io.Writer) (*result, error) {
	w, ok := workloads[cfg.workload]
	if !ok {
		return nil, fmt.Errorf("unknown workload %q (want defend, train or serve)", cfg.workload)
	}
	bf, err := loadBenchmarkFile(cfg.root)
	if err != nil {
		return nil, err
	}
	fmt.Fprintf(out, "# env %s\n", envHeader(cfg))
	rep := &report{values: map[string]float64{}}
	if !cfg.trace {
		if err := w.run(ctx, cfg, rep); err != nil {
			return nil, err
		}
		return rep.finish(bf.EndToEnd, true)
	}
	if err := w.traced(ctx, cfg, rep); err != nil {
		return nil, err
	}
	rep.set("bench.error_rate", float64(rep.failed)/float64(rep.attempted))
	return rep.finish(bf.PerLayer, false)
}

// envHeader identifies the host and build a result was measured on.
func envHeader(cfg config) string {
	commit := "unknown"
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				commit = s.Value
			}
		}
	}
	h, _ := json.Marshal(map[string]any{
		"go":         runtime.Version(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"nproc":      runtime.NumCPU(),
		"cpu":        cpuModel(),
		"commit":     commit,
		"seed":       cfg.seed,
		"workload":   cfg.workload,
		"trace":      cfg.trace,
	})
	return string(h)
}

func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return runtime.GOARCH
	}
	for _, line := range strings.Split(string(b), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return runtime.GOARCH
}

func main() {
	cfg := config{root: "."}
	var trace int
	flag.StringVar(&cfg.workload, "workload", "", "workload: defend, train or serve")
	flag.Int64Var(&cfg.seed, "seed", 1, "workload seed; every input is generated from it")
	flag.Float64Var(&cfg.seconds, "seconds", 36, "measurement time per run")
	flag.IntVar(&trace, "trace", 0, "1 = traced run reporting per-layer metrics")
	flag.Parse()
	cfg.trace = trace == 1
	cfg.workers = runtime.NumCPU()
	cfg.traceOut = filepath.Join(".bench_build", "perfbench-"+cfg.workload+".trace.json")
	if cfg.seconds <= 0 || (trace != 0 && trace != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: need --seconds > 0 and --trace 0 or 1")
		os.Exit(2)
	}
	res, err := execute(context.Background(), cfg, os.Stdout)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}
