// savat reproduces the paper's Table II: the SAVAT metric (signal
// available to an attacker who wants to distinguish instruction A from
// instruction B) computed from real measurements and from simulated
// signals, for the six events LDM, LDC, NOP, ADD, MUL, DIV.
package main

import (
	"fmt"
	"log"

	"emsim"
)

const (
	perHalf = 8
	periods = 16
)

func main() {
	dev := emsim.NewDevice(emsim.DefaultDeviceOptions())
	fmt.Println("training the model...")
	model, err := emsim.Train(dev, emsim.TrainOptions{})
	if err != nil {
		log.Fatal(err)
	}

	events := []emsim.SavatInst{emsim.LDM, emsim.LDC, emsim.NOP, emsim.ADD, emsim.MUL, emsim.DIV}
	spc := dev.SamplesPerCycle()
	// One streaming Session renders all 36 simulated microbenchmarks.
	sess, err := emsim.NewSession(model, dev.Options().CPU)
	if err != nil {
		log.Fatal(err)
	}

	measure := func(a, b emsim.SavatInst) (real, sim float64) {
		words, err := emsim.SavatProgram(a, b, perHalf, periods)
		if err != nil {
			log.Fatal(err)
		}
		sig, err := dev.MeasureAveraged(words, 10)
		if err != nil {
			log.Fatal(err)
		}
		real, err = emsim.Savat(sig, spc, len(sig)/spc, periods)
		if err != nil {
			log.Fatal(err)
		}
		ssig, err := sess.SimulateProgram(words)
		if err != nil {
			log.Fatal(err)
		}
		sim, err = emsim.Savat(ssig, spc, sess.Cycles(), periods)
		if err != nil {
			log.Fatal(err)
		}
		return real, sim
	}

	fmt.Println("\nSAVAT, real(R) / simulated(S)  — cf. paper Table II")
	fmt.Print("      ")
	for _, b := range events {
		fmt.Printf("%14s", b)
	}
	fmt.Println()
	for _, a := range events {
		fmt.Printf("%-6s", a)
		for _, b := range events {
			r, s := measure(a, b)
			fmt.Printf("  %5.2f /%5.2f", r, s)
		}
		fmt.Println()
	}
	fmt.Println("\nRead it like the paper: the diagonal is ~0 (identical instructions")
	fmt.Println("give an attacker nothing), LDM rows dominate (memory accesses are")
	fmt.Println("loud), and simulated values track the measured ones.")
}
