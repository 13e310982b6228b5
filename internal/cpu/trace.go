package cpu

import (
	"math/bits"

	"emsim/internal/isa"
)

// Stage identifies one of the five classic pipeline stages. The paper
// models each stage as an independent EM source (§III-A).
type Stage int

// The five pipeline stages, in program order.
const (
	IF Stage = iota
	ID
	EX
	MEM
	WB

	NumStages = 5
)

var stageNames = [NumStages]string{"IF", "ID", "EX", "MEM", "WB"}

// String returns the conventional stage abbreviation.
func (s Stage) String() string {
	if s >= 0 && int(s) < NumStages {
		return stageNames[s]
	}
	return "??"
}

// MaxLatchWords is the per-stage pipeline-latch word budget. Each stage
// exposes up to this many 32-bit latch values as the basis of its
// data-dependent activity features (the T vector of Equ. 8).
const MaxLatchWords = 3

// LatchWords returns how many 32-bit latches stage s exposes. The
// switch is deliberately exhaustive (enforced by the stageexhaustive
// analyzer): a new stage must declare its latch budget before anything
// derives feature widths from it.
//
//emsim:noalloc
func LatchWords(s Stage) int {
	switch s {
	case IF:
		return 2 // PC, fetched instruction word
	case ID:
		return 3 // rs1 value, rs2 value, effective immediate
	case EX:
		return 3 // operand A, operand B, ALU result
	case MEM:
		return 2 // memory address, memory data (load result or store data)
	case WB:
		return 2 // writeback value, one-hot destination register
	default:
		panic("cpu: LatchWords of invalid stage")
	}
}

// FeatureBits returns the width of stage s's transition-bit feature vector.
//
//emsim:noalloc
func FeatureBits(s Stage) int { return 32 * LatchWords(s) }

// TotalFeatureBits is the width of the concatenated all-stage feature
// vector.
func TotalFeatureBits() int {
	total := 0
	for s := Stage(0); s < NumStages; s++ {
		total += FeatureBits(s)
	}
	return total
}

// StageTrace captures everything the EM model needs to know about one
// stage in one cycle.
type StageTrace struct {
	// Op is the mnemonic occupying the stage, or isa.OpInvalid for a
	// bubble (either a pipeline startup hole or a misprediction flush).
	Op isa.Op
	// Inst is the full decoded instruction (zero for bubbles).
	Inst isa.Inst
	// Seq is the dynamic instruction sequence number, -1 for bubbles.
	Seq int
	// Bubble marks an empty or flushed slot.
	Bubble bool
	// Stalled marks a stage frozen this cycle (its latches are preserved,
	// and per §IV the hardware power-gates it, collapsing its EM
	// amplitude).
	Stalled bool
	// CacheAccess / CacheHit describe the data-cache outcome when the
	// stage is MEM and the instruction accesses memory this cycle.
	CacheAccess bool
	CacheHit    bool
	// Latch holds the stage's current latch values; Flip is the XOR with
	// the previous cycle's values (the transition bits of Equ. 8).
	Latch [MaxLatchWords]uint32
	Flip  [MaxLatchWords]uint32
}

// FlipCount returns the total number of transition bits in the stage this
// cycle.
//
//emsim:noalloc
func (st *StageTrace) FlipCount() int {
	n := 0
	for _, f := range st.Flip {
		n += bits.OnesCount32(f)
	}
	return n
}

// Cluster returns the Table I cluster the occupying instruction belongs to
// this cycle, resolving loads by the observed cache outcome. Bubbles
// report the ALU cluster (they behave like injected NOPs).
//
//emsim:noalloc
func (st *StageTrace) Cluster() isa.Cluster {
	if st.Bubble || !st.Op.Valid() {
		return isa.ClusterALU
	}
	if st.Op.IsLoad() && st.CacheAccess {
		return isa.DynamicCluster(st.Op, st.CacheHit)
	}
	return isa.StaticCluster(st.Op)
}

// Cycle is the full microarchitectural record of one clock cycle. Both the
// synthetic "real hardware" and the EMSim model consume this; they differ
// only in the physics parameters they apply to it.
type Cycle struct {
	// N is the cycle number, starting at 0.
	N int
	// Stages holds the per-stage records, indexed by Stage.
	Stages [NumStages]StageTrace
	// AnyStall reports whether any stage was frozen this cycle.
	AnyStall bool
	// MispredictFlush reports that a branch misprediction flushed the
	// front of the pipeline at the end of this cycle.
	MispredictFlush bool
}

// Trace is the per-cycle record of one complete program execution.
type Trace []Cycle
