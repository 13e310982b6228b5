// Command emsim assembles a program, trains an EMSim model against the
// synthetic reference device, simulates the program's EM side-channel
// signal cycle by cycle, and reports how well the simulation matches a
// measurement — the end-to-end flow of the paper.
//
// Usage:
//
//	emsim [-csv signal.csv] [-pipeline] [-trace out.json] [-runs N] [-defense spec] [prog.s]
//
// Without an argument a built-in demo program runs. The CSV (one line per
// sample: time-in-cycles, measured, simulated) can be plotted with any
// tool to reproduce the paper's waveform figures. -trace records the
// run's internal span timeline (training phases, simulate calls) as
// Chrome trace JSON, loadable in chrome://tracing or Perfetto.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"emsim/internal/asm"
	"emsim/internal/core"
	"emsim/internal/cpu"
	"emsim/internal/defend"
	"emsim/internal/device"
	"emsim/internal/obs"
)

const demoProgram = `
	# Demo: a loop with loads, stores, a multiply and a branch — every
	# microarchitectural event the paper models shows up in its signal.
	li   s0, 0x2000        # data pointer
	li   t0, 8             # iterations
	li   t1, 0x1234
loop:
	mul  t2, t1, t0        # multi-cycle EX occupancy
	sw   t2, 0(s0)         # store
	lw   t3, 0(s0)         # cache hit
	lw   t4, 0x400(s0)     # fresh line: miss on first touch
	addi s0, s0, 4
	addi t0, t0, -1
	bnez t0, loop          # mispredicted until the predictor warms
	ebreak
`

func main() {
	csvPath := flag.String("csv", "", "write time,measured,simulated samples to this file")
	showPipeline := flag.Bool("pipeline", false, "print the per-cycle pipeline occupancy")
	tracePath := flag.String("trace", "", "record the run's span timeline as Chrome trace JSON into this file")
	attribute := flag.Bool("attribute", false, "print the signal attribution by stage and instruction")
	repeat := flag.Int("repeat", 0, "re-simulate the program N times through one Session and report throughput")
	runs := flag.Int("runs", 20, "measurement averaging runs")
	seed := flag.Int64("seed", 1, "training seed")
	modelPath := flag.String("model", "", "cache the trained model in this file (loaded if it exists)")
	progress := flag.Bool("progress", false, "report per-phase training progress on stderr")
	trainWorkers := flag.Int("train-workers", 0, "training measurement workers (0 = GOMAXPROCS)")
	defense := flag.String("defense", "", "run the program under a countermeasure, name[:param=val,...] (shuffle, dummy, jitter)")
	flag.Parse()

	if *tracePath != "" {
		obs.Enable(0)
		defer writeTrace(*tracePath)
	}

	src := demoProgram
	if flag.NArg() == 1 {
		data, err := os.ReadFile(flag.Arg(0))
		if err != nil {
			fatal(err)
		}
		src = string(data)
	} else if flag.NArg() > 1 {
		fmt.Fprintln(os.Stderr, "usage: emsim [-csv out.csv] [-pipeline] [-trace out.json] [prog.s]")
		os.Exit(2)
	}

	prog, err := asm.Assemble(src)
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
		if *progress {
			topts.Progress = printProgress
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
	fmt.Fprintf(os.Stderr, "kernel: %s theta=%.2f T0=%.3f\n",
		model.Kernel.Kind, model.Kernel.Theta, model.Kernel.Period)

	cmp, err := model.CompareOnDevice(dev, prog.Words, *runs)
	if err != nil {
		fatal(err)
	}

	// Run once more locally for the stats and optional trace.
	c, err := cpu.New(dev.Options().CPU)
	if err != nil {
		fatal(err)
	}
	tr, err := c.RunProgram(prog.Words)
	if err != nil {
		fatal(err)
	}
	st := c.Stats()
	fmt.Printf("program: %d instructions, %d cycles, IPC %.2f\n", st.Retired, st.Cycles, st.IPC())
	fmt.Printf("events: %d stall cycles, %d cache hits, %d misses, %d mispredictions\n",
		st.StallCycles, st.CacheHits, st.CacheMisses, st.Mispredicts)
	fmt.Printf("simulated-vs-measured accuracy: %.1f%% (paper reports 94.1%% on its benchmark)\n",
		100*cmp.Accuracy)

	if *defense != "" {
		if err := reportDefended(dev.Options().CPU, prog.Words, *defense, uint64(*seed), st); err != nil {
			fatal(err)
		}
	}

	if *repeat > 0 {
		if err := reportThroughput(model, dev.Options().CPU, prog.Words, *repeat); err != nil {
			fatal(err)
		}
	}
	if *showPipeline {
		printTrace(tr)
	}
	if *attribute {
		fmt.Print(model.Attribute(tr).Report(10))
	}
	if *csvPath != "" {
		if err := writeCSV(*csvPath, cmp, model.SamplesPerCycle); err != nil {
			fatal(err)
		}
		fmt.Fprintf(os.Stderr, "wrote %d samples to %s\n", len(cmp.Measured), *csvPath)
	}
}

// reportDefended re-runs the program under a countermeasure (armed with
// the campaign seed) and prints the defended execution profile next to
// the baseline.
func reportDefended(cfg cpu.Config, words []uint32, spec string, seed uint64, base cpu.Stats) error {
	sp, err := defend.ParseSpec(spec)
	if err != nil {
		return err
	}
	cm, err := sp.New()
	if err != nil {
		return err
	}
	armed, err := cm.Arm(words, seed)
	if err != nil {
		return err
	}
	c, err := cpu.New(cfg)
	if err != nil {
		return err
	}
	c.SetFetchInjector(armed.Injector)
	if _, err := c.RunProgram(armed.Words); err != nil {
		return err
	}
	st := c.Stats()
	fmt.Printf("defense %s: %d cycles (overhead %+.1f%%), IPC %.2f, %d injected fetch slots\n",
		sp, st.Cycles, 100*(float64(st.Cycles)/float64(base.Cycles)-1), st.IPC(), st.Injected)
	return nil
}

// printProgress streams training-phase progress to stderr: one line when
// a phase announces itself, one when its last measurement lands.
func printProgress(p core.Progress) {
	switch {
	case p.Done == 0:
		fmt.Fprintf(os.Stderr, "  phase %d/%d %-10s %d measurements...\n",
			int(p.Phase)+1, core.NumPhases, p.Phase, p.Total)
	case p.Done == p.Total:
		fmt.Fprintf(os.Stderr, "  phase %d/%d %-10s done in %s\n",
			int(p.Phase)+1, core.NumPhases, p.Phase, p.Elapsed.Round(time.Millisecond))
	}
}

// reportThroughput re-simulates the program through one streaming Session
// (the campaign hot path: resettable core, reused buffers, ~0 allocations
// per trace) and prints the sustained simulation rate.
func reportThroughput(model *core.Model, cfg cpu.Config, words []uint32, n int) error {
	sess, err := core.NewSession(model, cfg)
	if err != nil {
		return err
	}
	var sig []float64
	cycles := 0
	start := time.Now()
	for i := 0; i < n; i++ {
		if sig, err = sess.SimulateProgramInto(sig, words); err != nil {
			return err
		}
		cycles += sess.Cycles()
	}
	elapsed := time.Since(start)
	fmt.Printf("session throughput: %d traces (%d cycles) in %v — %.0f cycles/s\n",
		n, cycles, elapsed.Round(time.Millisecond), float64(cycles)/elapsed.Seconds())
	return nil
}

func printTrace(tr cpu.Trace) {
	fmt.Println("cycle  IF       ID       EX       MEM      WB")
	for i := range tr {
		var cells [cpu.NumStages]string
		for s := cpu.Stage(0); s < cpu.NumStages; s++ {
			st := tr[i].Stages[s]
			switch {
			case st.Bubble:
				cells[s] = "--"
			case st.Stalled:
				cells[s] = "*" + st.Op.String()
			default:
				cells[s] = st.Op.String()
			}
		}
		fmt.Printf("%5d  %-8s %-8s %-8s %-8s %-8s\n",
			i, cells[0], cells[1], cells[2], cells[3], cells[4])
	}
}

func writeCSV(path string, cmp *core.Comparison, spc int) error {
	var b strings.Builder
	b.WriteString("t_cycles,measured,simulated\n")
	for i := range cmp.Measured {
		fmt.Fprintf(&b, "%.4f,%.6f,%.6f\n", float64(i)/float64(spc), cmp.Measured[i], cmp.Simulated[i])
	}
	return os.WriteFile(path, []byte(b.String()), 0o644)
}

// writeTrace flushes the recorded span ring as Chrome trace JSON.
func writeTrace(path string) {
	f, err := os.Create(path)
	if err != nil {
		fatal(err)
	}
	if err := obs.WriteChromeTrace(f, obs.Snapshot()); err != nil {
		fatal(err)
	}
	if err := f.Close(); err != nil {
		fatal(err)
	}
	fmt.Fprintf(os.Stderr, "wrote span trace to %s\n", path)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "emsim:", err)
	os.Exit(1)
}
