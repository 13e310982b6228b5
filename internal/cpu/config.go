package cpu

import (
	"fmt"

	"emsim/internal/bpred"
	"emsim/internal/mem"
)

// PredictorKind selects the branch direction predictor, mirroring the
// predictor comparison in §IV of the paper.
type PredictorKind int

// Supported direction predictors.
const (
	PredictTwoLevel PredictorKind = iota // paper default (Yeh–Patt + BTB)
	PredictGShare
	PredictBimodal
	PredictNotTaken
)

func (k PredictorKind) String() string {
	switch k {
	case PredictTwoLevel:
		return "two-level"
	case PredictGShare:
		return "gshare"
	case PredictBimodal:
		return "bimodal"
	case PredictNotTaken:
		return "not-taken"
	}
	return "unknown"
}

func (k PredictorKind) build() *bpred.Unit {
	switch k {
	case PredictGShare:
		return bpred.NewUnit(bpred.NewGShare(10), 9)
	case PredictBimodal:
		return bpred.NewUnit(bpred.NewBimodal(10), 9)
	case PredictNotTaken:
		return bpred.NewUnit(bpred.NewNotTaken(), 9)
	default:
		return bpred.DefaultUnit()
	}
}

// Config describes the microarchitecture of the simulated core. The zero
// value is not usable; start from DefaultConfig.
type Config struct {
	// Cache is the data-cache geometry and latency model.
	Cache mem.CacheConfig
	// Predictor selects the branch direction predictor.
	Predictor PredictorKind
	// MulLatency is the number of EX cycles a multiply occupies
	// (the paper's multiplier takes 3 cycles, cf. Figure 11).
	MulLatency int
	// DivLatency is the number of EX cycles a divide/remainder occupies.
	DivLatency int
	// Forwarding enables EX/MEM->EX and MEM/WB->EX operand bypassing.
	// The paper reports forwarding has no significant EM effect (§IV);
	// disabling it forces stalls on every RAW hazard instead.
	Forwarding bool
	// BuggyMul injects the hardware defect of Figure 11: the multiplier
	// uses only the low 8 bits of each operand, producing both a wrong
	// architectural result and far fewer output-latch bit flips.
	BuggyMul bool
	// ResetVector is the PC at power-on.
	ResetVector uint32
	// MaxCycles bounds a single Run as a runaway-program guard.
	MaxCycles int
}

// DefaultConfig returns the paper's processor configuration (§II-A).
func DefaultConfig() Config {
	return Config{
		Cache:     mem.DefaultCacheConfig(),
		Predictor: PredictTwoLevel,
		// The paper's Table I clusters MUL and DIV together, implying the
		// shared iterative unit serves both with the same latency.
		MulLatency:  3,
		DivLatency:  3,
		Forwarding:  true,
		ResetVector: 0,
		MaxCycles:   2_000_000,
	}
}

func (c Config) validate() error {
	if c.MulLatency < 1 || c.DivLatency < 1 {
		return fmt.Errorf("cpu: mul/div latency must be >= 1 (got %d/%d)", c.MulLatency, c.DivLatency)
	}
	if c.MaxCycles < 1 {
		return fmt.Errorf("cpu: MaxCycles must be positive")
	}
	return nil
}
