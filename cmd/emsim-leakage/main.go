// Command emsim-leakage runs the paper's §VI-A leakage-assessment
// use-cases from the command line: TVLA (fixed-vs-random Welch t-test on
// AES-128) and SAVAT (instruction-pair signal availability, Table II),
// each from real device measurements, from purely simulated signals, or
// both side by side.
//
// Usage:
//
//	emsim-leakage -mode tvla [-traces 40] [-sim|-real]
//	emsim-leakage -mode savat [-a MUL -b NOP | -matrix]
//
// A trained model can be cached with -model file.json (written on first
// run, loaded afterwards), which makes repeat assessments start in
// milliseconds — the paper's "ship the board's parameters" workflow.
package main

import (
	"flag"
	"fmt"
	"math/rand"
	"os"
	"strings"
	"time"

	"emsim"
	"emsim/internal/core"
	"emsim/internal/leakage"
)

func main() {
	mode := flag.String("mode", "tvla", "assessment to run: tvla or savat")
	traces := flag.Int("traces", 40, "tvla: traces per group (fixed and random)")
	simOnly := flag.Bool("sim", false, "use only simulated signals")
	realOnly := flag.Bool("real", false, "use only device measurements")
	aName := flag.String("a", "MUL", "savat: instruction A (LDM,LDC,NOP,ADD,MUL,DIV)")
	bName := flag.String("b", "NOP", "savat: instruction B")
	matrix := flag.Bool("matrix", false, "savat: compute the full Table II matrix")
	perHalf := flag.Int("perhalf", 8, "savat: instructions per half period")
	periods := flag.Int("periods", 16, "savat: alternation periods")
	runs := flag.Int("runs", 10, "savat: measurement averaging runs")
	modelPath := flag.String("model", "", "cache the trained model in this file")
	seed := flag.Int64("seed", 1, "training and protocol seed")
	progress := flag.Bool("progress", false, "report per-phase training progress on stderr")
	trainWorkers := flag.Int("train-workers", 0, "training measurement workers (0 = GOMAXPROCS)")
	flag.Parse()

	if *simOnly && *realOnly {
		fatal(fmt.Errorf("-sim and -real are mutually exclusive"))
	}
	doReal, doSim := !*simOnly, !*realOnly

	dev := emsim.NewDevice(emsim.DefaultDeviceOptions())
	// Training is skipped entirely for -real runs that never simulate.
	var model *emsim.Model
	if doSim {
		m, trained, err := core.LoadOrTrainFile(*modelPath, func() (*core.Model, error) {
			fmt.Fprintln(os.Stderr, "training EMSim against the reference device...")
			opts := core.TrainOptions{Seed: *seed, Workers: *trainWorkers}
			if *progress {
				opts.Progress = printProgress
			}
			return core.Train(dev, opts)
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
		model = m
	}

	switch *mode {
	case "tvla":
		runTVLA(dev, model, *traces, *seed, doReal, doSim)
	case "savat":
		runSavat(dev, model, *aName, *bName, *matrix, *perHalf, *periods, *runs, doReal, doSim)
	default:
		fatal(fmt.Errorf("unknown -mode %q (want tvla or savat)", *mode))
	}
}

// printProgress reports each training phase's start and finish on stderr.
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

func runTVLA(dev *emsim.Device, model *emsim.Model, traces int, seed int64, doReal, doSim bool) {
	key := [16]byte{0x2b, 0x7e, 0x15, 0x16, 0x28, 0xae, 0xd2, 0xa6,
		0xab, 0xf7, 0x15, 0x88, 0x09, 0xcf, 0x4f, 0x3c}
	var fixed [16]byte
	copy(fixed[:], "tvla-fixed-input")

	build := func(input [16]byte) ([]uint32, error) {
		prog, err := emsim.BuildAES(key, input)
		if err != nil {
			return nil, err
		}
		return prog.Words, nil
	}
	realSrc := emsim.TraceSource(dev.CaptureSource(build))

	fmt.Printf("TVLA on AES-128, %d traces per group, threshold |t| > 4.5\n\n", traces)
	if doReal {
		report("real measurements", mustTVLA(realSrc, fixed, seed, traces))
	}
	if doSim {
		// One Session serves the whole campaign: 2×traces AES encryptions
		// through a resettable core and reused buffers.
		sess, err := emsim.NewSession(model, dev.Options().CPU)
		if err != nil {
			fatal(err)
		}
		noise := rand.New(rand.NewSource(seed + 99))
		noiseStd := dev.Options().NoiseStd
		simSrc := leakage.SimSource(sess, build, func() float64 { return noiseStd * noise.NormFloat64() })
		report("simulated signals", mustTVLA(simSrc, fixed, seed, traces))
	}
}

func mustTVLA(src emsim.TraceSource, fixed [16]byte, seed int64, traces int) *emsim.TVLAResult {
	res, err := emsim.TVLA(src, fixed, rand.New(rand.NewSource(seed)), traces)
	if err != nil {
		fatal(err)
	}
	return res
}

func report(label string, r *emsim.TVLAResult) {
	verdict := "PASS (no first-order leakage detected)"
	if r.Leaks() {
		verdict = fmt.Sprintf("LEAKS at %d sample points", len(r.LeakyPoints))
	}
	fmt.Printf("%-20s max|t| = %6.1f  %s\n", label+":", r.MaxAbsT, verdict)
}

func runSavat(dev *emsim.Device, model *emsim.Model, aName, bName string,
	matrix bool, perHalf, periods, runs int, doReal, doSim bool) {
	spc := dev.SamplesPerCycle()

	var sess *emsim.Session
	if doSim {
		var err error
		if sess, err = emsim.NewSession(model, dev.Options().CPU); err != nil {
			fatal(err)
		}
	}

	// Each side runs a SAVAT program and returns its signal and cycles.
	measure := func(words []uint32) ([]float64, int, error) {
		sig, err := dev.MeasureAveraged(words, runs)
		return sig, len(sig) / spc, err
	}
	simulate := func(words []uint32) ([]float64, int, error) {
		sig, err := sess.SimulateProgram(words)
		return sig, sess.Cycles(), err
	}

	if !matrix {
		a, err := parseSavatInst(aName)
		if err != nil {
			fatal(err)
		}
		b, err := parseSavatInst(bName)
		if err != nil {
			fatal(err)
		}
		words, err := emsim.SavatProgram(a, b, perHalf, periods)
		if err != nil {
			fatal(err)
		}
		one := func(run func([]uint32) ([]float64, int, error)) float64 {
			sig, cycles, err := run(words)
			if err != nil {
				fatal(err)
			}
			v, err := emsim.Savat(sig, spc, cycles, periods)
			if err != nil {
				fatal(err)
			}
			return v
		}
		var realV, simV float64
		if doReal {
			realV = one(measure)
		}
		if doSim {
			simV = one(simulate)
		}
		fmt.Printf("SAVAT(%s, %s):", a, b)
		if doReal {
			fmt.Printf("  real %.4f", realV)
		}
		if doSim {
			fmt.Printf("  simulated %.4f", simV)
		}
		fmt.Println()
		return
	}

	// Each matrix runs every cell once, in row-major order.
	printMatrix := func(label string, run func([]uint32) ([]float64, int, error)) {
		m, err := leakage.SavatMatrix(run, spc, perHalf, periods)
		if err != nil {
			fatal(err)
		}
		fmt.Printf("SAVAT matrix (%s):\n      ", label)
		for a := range m {
			fmt.Printf("%8s", emsim.SavatInst(a))
		}
		fmt.Println()
		for a, row := range m {
			fmt.Printf("%5s ", emsim.SavatInst(a))
			for _, v := range row {
				fmt.Printf("%8.3f", v)
			}
			fmt.Println()
		}
		fmt.Println()
	}
	if doReal {
		printMatrix("real measurements", measure)
	}
	if doSim {
		printMatrix("simulated", simulate)
	}
}

func parseSavatInst(name string) (emsim.SavatInst, error) {
	switch strings.ToUpper(strings.TrimSpace(name)) {
	case "LDM":
		return emsim.LDM, nil
	case "LDC":
		return emsim.LDC, nil
	case "NOP":
		return emsim.NOP, nil
	case "ADD":
		return emsim.ADD, nil
	case "MUL":
		return emsim.MUL, nil
	case "DIV":
		return emsim.DIV, nil
	}
	return 0, fmt.Errorf("unknown SAVAT instruction %q (want LDM, LDC, NOP, ADD, MUL or DIV)", name)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "emsim-leakage:", err)
	os.Exit(1)
}
