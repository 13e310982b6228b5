// Command emsim-defend evaluates a microarchitectural countermeasure:
// it runs the full attack campaign of defend.Evaluate — a TVLA
// fixed-vs-random detection sweep and a CPA key-recovery
// traces-to-disclosure curve against AES-128 — on both baseline and
// defended execution, and reports leakage reduction, attack-cost
// multiplier and cycle overhead.
//
// Usage:
//
//	emsim-defend [-defense spec] [-model file.json] [-json]
//
// The defense spec is name[:param=val,...]:
//
//	shuffle[:window=N]          dataflow-safe instruction reordering
//	dummy[:rate=R]              random inert-instruction insertion
//	jitter[:rate=R,region=N]    randomized per-region pipeline stalls
//
// Every campaign is keyed by -seed: repeated runs produce byte-identical
// reports at any -workers count.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"sync"
	"time"

	"emsim/internal/core"
	"emsim/internal/defend"
	"emsim/internal/device"
)

func main() {
	defense := flag.String("defense", "shuffle", "countermeasure spec: name[:param=val,...]")
	modelPath := flag.String("model", "", "cache the trained model in this file (loaded if it exists)")
	seed := flag.Int64("seed", 1, "campaign randomization seed")
	workers := flag.Int("workers", 0, "simulation fan-out (0 = GOMAXPROCS)")
	tvlaTraces := flag.Int("tvla-traces", 0, "TVLA traces per group (0 = default 64)")
	cpaTraces := flag.Int("cpa-traces", 0, "CPA trace budget (0 = default 512)")
	cpaStep := flag.Int("cpa-step", 0, "CPA key-rank grid step (0 = default 64)")
	cpaPoints := flag.Int("cpa-points", 0, "CPA points-of-interest columns (0 = attack every column)")
	noise := flag.Float64("noise", 0, "additive measurement-noise sigma (0 = default 0.02)")
	asJSON := flag.Bool("json", false, "emit the report as JSON instead of the summary table")
	progress := flag.Bool("progress", false, "report per-arm campaign progress on stderr")
	trainWorkers := flag.Int("train-workers", 0, "training measurement workers (0 = GOMAXPROCS)")
	quick := flag.Bool("quick", false, "smaller training campaign (faster, slightly less accurate)")
	flag.Parse()

	spec, err := defend.ParseSpec(*defense)
	if err != nil {
		fatal(err)
	}

	dev, err := device.New(device.DefaultOptions())
	if err != nil {
		fatal(err)
	}
	model, trained, err := core.LoadOrTrainFile(*modelPath, func() (*core.Model, error) {
		fmt.Fprintln(os.Stderr, "training EMSim against the reference device...")
		topts := core.TrainOptions{Seed: *seed, Workers: *trainWorkers}
		if *quick {
			topts.Runs = 3
			topts.InstancesPerCluster = 10
			topts.MixedPrograms = 2
			topts.MixedLength = 200
		}
		return core.Train(dev, topts)
	})
	if err != nil {
		fatal(err)
	}
	switch {
	case !trained:
		fmt.Fprintf(os.Stderr, "loaded trained model from %s\n", *modelPath)
	case *modelPath != "":
		fmt.Fprintf(os.Stderr, "saved trained model to %s\n", *modelPath)
	}

	opts := defend.Options{
		Model:      model,
		CPU:        dev.Options().CPU,
		Defense:    spec,
		Seed:       *seed,
		Workers:    *workers,
		TVLATraces: *tvlaTraces,
		CPATraces:  *cpaTraces,
		CPAStep:    *cpaStep,
		CPAPoints:  *cpaPoints,
		NoiseStd:   *noise,
	}
	if *progress {
		// Simulation workers invoke the callback concurrently, so the
		// printer state needs its own lock.
		var progMu sync.Mutex
		lastArm := ""
		opts.Progress = func(arm string, done, total int) {
			progMu.Lock()
			defer progMu.Unlock()
			if arm != lastArm {
				if lastArm != "" {
					fmt.Fprintln(os.Stderr)
				}
				lastArm = arm
				fmt.Fprintf(os.Stderr, "  arm %-20s", arm)
			}
			if done == total {
				fmt.Fprintf(os.Stderr, " %d traces done", total)
			}
		}
	}

	start := time.Now()
	report, err := defend.Evaluate(context.Background(), opts)
	if err != nil {
		fatal(err)
	}
	if *progress {
		fmt.Fprintf(os.Stderr, "\nevaluated in %s\n", time.Since(start).Round(time.Millisecond))
	}

	if *asJSON {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(report); err != nil {
			fatal(err)
		}
		return
	}
	fmt.Print(report)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "emsim-defend:", err)
	os.Exit(1)
}
