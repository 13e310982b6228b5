// Command emsim-bench reproduces the paper's evaluation: it trains a
// model against the synthetic reference device and runs every table and
// figure of §V and §VI, printing paper-style rows. EXPERIMENTS.md records
// a full run.
//
// Usage:
//
//	emsim-bench [-experiment name] [-groups N] [-quick]
//
// -experiment selects one of: fig1 fig2 fig3 fig4 fig5 fig6 fig7 table1
// fig8 ablations manufacturing board fig9 fig10 table2 fig11 predictors
// forwarding sampling budget defense (default: all). -groups bounds the
// Figure 8 benchmark size (0 = all 17 groups, the recorded
// configuration). -quick shrinks the training campaign for a fast smoke
// run. -train-workers sets the measurement fan-out width of every
// training campaign (0 = GOMAXPROCS). A failed experiment does not stop
// the others; the command then exits with status 1, naming each one.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"emsim/internal/core"
	"emsim/internal/experiments"
)

func main() {
	which := flag.String("experiment", "all", "experiment to run (fig1..fig11, table1, table2, ablations, manufacturing, board, predictors, forwarding, sampling, budget, defense, all)")
	groups := flag.Int("groups", 0, "Figure 8 benchmark groups per variant (0 = all 17)")
	quick := flag.Bool("quick", false, "smaller training campaign (faster, slightly less accurate)")
	tvlaTraces := flag.Int("tvla-traces", 40, "TVLA traces per group")
	trainWorkers := flag.Int("train-workers", 0, "training measurement workers (0 = GOMAXPROCS)")
	flag.Parse()

	opts := experiments.DefaultEnvOptions()
	if *quick {
		opts.Train = core.TrainOptions{Runs: 8, InstancesPerCluster: 20, MixedLength: 300}
		opts.Runs = 6
	}
	opts.Train.Workers = *trainWorkers
	start := time.Now()
	fmt.Fprintln(os.Stderr, "building device and training the model...")
	env, err := experiments.NewEnv(opts)
	if err != nil {
		fatal(err)
	}
	fmt.Fprintf(os.Stderr, "trained in %.1fs (kernel %s theta=%.2f T0=%.3f)\n\n",
		time.Since(start).Seconds(), env.Model.Kernel.Kind, env.Model.Kernel.Theta, env.Model.Kernel.Period)

	type experiment struct {
		name string
		run  func() (fmt.Stringer, error)
	}
	all := []experiment{
		{"fig1", func() (fmt.Stringer, error) { return env.Figure1() }},
		{"fig2", func() (fmt.Stringer, error) { return env.Figure2() }},
		{"fig3", func() (fmt.Stringer, error) { return env.Figure3() }},
		{"fig4", func() (fmt.Stringer, error) { return env.Figure4() }},
		{"fig5", func() (fmt.Stringer, error) { return env.Figure5() }},
		{"fig6", func() (fmt.Stringer, error) { return env.Figure6() }},
		{"fig7", func() (fmt.Stringer, error) { return env.Figure7() }},
		{"table1", func() (fmt.Stringer, error) { return env.TableI() }},
		{"fig8", func() (fmt.Stringer, error) { return env.Figure8(*groups) }},
		{"ablations", func() (fmt.Stringer, error) { return env.Ablations(4) }},
		{"manufacturing", func() (fmt.Stringer, error) { return env.Manufacturing() }},
		{"board", func() (fmt.Stringer, error) { return env.BoardVariability() }},
		{"fig9", func() (fmt.Stringer, error) { return env.Figure9() }},
		{"fig10", func() (fmt.Stringer, error) { return env.Figure10(*tvlaTraces) }},
		{"table2", func() (fmt.Stringer, error) { return env.TableII() }},
		{"fig11", func() (fmt.Stringer, error) { return env.Figure11() }},
		{"predictors", func() (fmt.Stringer, error) { return env.PredictorStudy() }},
		{"forwarding", func() (fmt.Stringer, error) { return env.ForwardingStudy() }},
		{"sampling", func() (fmt.Stringer, error) { return env.SamplingRateStudy() }},
		{"budget", func() (fmt.Stringer, error) { return env.TrainingBudgetStudy() }},
		{"defense", func() (fmt.Stringer, error) { return env.DefenseStudy(*tvlaTraces, 0) }},
	}

	ran := 0
	var failed []string
	for _, e := range all {
		if *which != "all" && *which != e.name {
			continue
		}
		ran++
		t0 := time.Now()
		r, err := e.run()
		if err != nil {
			fmt.Fprintf(os.Stderr, "%s: %v\n", e.name, err)
			failed = append(failed, e.name)
			continue
		}
		fmt.Println(r)
		fmt.Fprintf(os.Stderr, "[%s took %.1fs]\n\n", e.name, time.Since(t0).Seconds())
	}
	if ran == 0 {
		fmt.Fprintf(os.Stderr, "unknown experiment %q\n", *which)
		os.Exit(2)
	}
	fmt.Fprintf(os.Stderr, "total %.1fs\n", time.Since(start).Seconds())
	if len(failed) > 0 {
		fatal(fmt.Errorf("%d experiment(s) failed: %s", len(failed), strings.Join(failed, " ")))
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "emsim-bench:", err)
	os.Exit(1)
}
