package core

import (
	"bytes"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"testing"

	"emsim/internal/asm"
	"emsim/internal/cpu"
	"emsim/internal/isa"
)

// referenceContribution, referenceStageSource and
// referenceCycleAmplitude are the amplitude model as it was before the
// activity term went branch-free: one branch per selected transition
// bit. Kept as the oracle TestCycleAmplitudeMatchesReference holds the
// masked loop to, bit for bit.
func referenceContribution(m *StageActivityModel, st *cpu.StageTrace) float64 {
	s := 0.0
	for i, bit := range m.Selected {
		if st.Flip[bit/32]>>(uint(bit)%32)&1 == 1 {
			s += m.Coef[i]
		}
	}
	return s
}

func referenceStageSource(m *Model, s cpu.Stage, st *cpu.StageTrace, averaged bool) float64 {
	if st.Stalled && m.Options.ModelStalls {
		if averaged || m.Options.ModelCache || s != cpu.MEM || !st.CacheAccess {
			return 0
		}
	}
	key := m.ampKeyFor(st)
	var u float64
	if averaged {
		for ss := 0; ss < cpu.NumStages; ss++ {
			u += m.Amp[key][ss]
		}
		u /= cpu.NumStages
	} else {
		u = m.Amp[key][s]
	}
	switch m.Options.Activity {
	case ActivityLR:
		u += referenceContribution(&m.Activity[s], st)
	case ActivityAverage:
		u *= 1 + float64(st.FlipCount())/float64(cpu.FeatureBits(s))
	}
	if !averaged && m.Beta != nil {
		u *= m.Beta[s]
	}
	return u
}

func referenceCycleAmplitude(m *Model, c *cpu.Cycle) float64 {
	if m.Options.PerStageSources {
		x := m.MISOIntercept
		for s := cpu.Stage(0); s < cpu.NumStages; s++ {
			x += m.MISO[s] * referenceStageSource(m, s, &c.Stages[s], false)
		}
		return x
	}
	sum := 0.0
	for s := cpu.Stage(0); s < cpu.NumStages; s++ {
		if u := referenceStageSource(m, s, &c.Stages[s], true); u != 0 {
			sum += u
		}
	}
	return m.SingleIntercept + m.SingleM*sum
}

// goldenCorpusCycles runs every program of the golden corpus and
// returns all of their cycles.
func goldenCorpusCycles(t *testing.T) []cpu.Cycle {
	t.Helper()
	files, err := filepath.Glob("../../testdata/golden/*.s")
	if err != nil || len(files) == 0 {
		t.Fatalf("golden programs: %v (%d found)", err, len(files))
	}
	var cycles []cpu.Cycle
	for _, f := range files {
		src, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		prog, err := asm.Assemble(string(src))
		if err != nil {
			t.Fatalf("%s: %v", f, err)
		}
		tr, err := cpu.MustNew(cpu.DefaultConfig()).RunProgram(prog.Words)
		if err != nil {
			t.Fatalf("%s: %v", f, err)
		}
		cycles = append(cycles, tr...)
	}
	return cycles
}

// randomCycle draws a cycle no program need produce: any occupant,
// bubble, stall and cache flags, and flip words from empty to dense.
func randomCycle(rng *rand.Rand) cpu.Cycle {
	var c cpu.Cycle
	for s := range c.Stages {
		st := &c.Stages[s]
		switch rng.Intn(8) {
		case 0:
			st.Bubble, st.Seq = true, -1
		case 1:
			st.Op, st.Inst = isa.ADDI, isa.NOP
		default:
			op := isa.Op(1 + rng.Intn(isa.NumOps))
			st.Op = op
			st.Inst = isa.Inst{Op: op, Rd: isa.Reg(rng.Intn(32)), Rs1: isa.Reg(rng.Intn(32)), Imm: int32(rng.Intn(64))}
		}
		st.Stalled = rng.Intn(5) == 0
		st.CacheAccess = rng.Intn(3) == 0
		st.CacheHit = rng.Intn(2) == 0
		for w := range st.Flip {
			switch rng.Intn(3) {
			case 1:
				st.Flip[w] = rng.Uint32()
			case 2:
				st.Flip[w] = rng.Uint32() & rng.Uint32() & rng.Uint32()
			}
		}
	}
	return c
}

// edgeActivity selects two thirds of each stage's bits in a random
// order, weighted by signed zeros, subnormals, ±1e300 and ordinary
// values: a mix whose sum depends on the order of the additions.
func edgeActivity(rng *rand.Rand) (act [cpu.NumStages]StageActivityModel) {
	pool := []float64{0, math.Copysign(0, -1), 5e-324, -5e-324, 1e-310, -3e-309, 1e300, -1e300, 1, -0.5}
	for s := cpu.Stage(0); s < cpu.NumStages; s++ {
		bits := cpu.FeatureBits(s)
		sel := rng.Perm(bits)[:2*bits/3]
		coef := make([]float64, len(sel))
		for i := range coef {
			if k := rng.Intn(len(pool) + 1); k < len(pool) {
				coef[i] = pool[k]
			} else {
				coef[i] = rng.NormFloat64() * 1e-3
			}
		}
		act[s] = StageActivityModel{Selected: sel, Coef: coef, Candidates: bits}
	}
	return act
}

// TestCycleAmplitudeMatchesReference holds CycleAmplitude and
// StageContribution to the branchy reference bit for bit, over every
// cycle of the golden corpus and 10,000 random cycles, for the golden
// model's activity fit and an edge-value one, under the full model and
// each ablation switch.
func TestCycleAmplitudeMatchesReference(t *testing.T) {
	golden, err := os.ReadFile(goldenModelFile)
	if err != nil {
		t.Fatal(err)
	}
	base, err := LoadModel(bytes.NewReader(golden))
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	cycles := goldenCorpusCycles(t)
	for i := 0; i < 10000; i++ {
		cycles = append(cycles, randomCycle(rng))
	}
	activity := map[string][cpu.NumStages]StageActivityModel{
		"golden": base.Activity,
		"edge":   edgeActivity(rng),
	}
	full := FullModel()
	options := map[string]ModelOptions{"full": full}
	for name, edit := range map[string]func(*ModelOptions){
		"single-source":    func(o *ModelOptions) { o.PerStageSources = false },
		"activity-average": func(o *ModelOptions) { o.Activity = ActivityAverage },
		"activity-none":    func(o *ModelOptions) { o.Activity = ActivityNone },
		"no-stalls":        func(o *ModelOptions) { o.ModelStalls = false },
		"no-cache":         func(o *ModelOptions) { o.ModelCache = false },
		"no-flush":         func(o *ModelOptions) { o.ModelFlush = false },
	} {
		o := full
		edit(&o)
		options[name] = o
	}
	beta := [cpu.NumStages]float64{0.9, 1.1, 1.3, 0.7, 1.05}
	for aname, act := range activity {
		for oname, opts := range options {
			for _, b := range []*[cpu.NumStages]float64{nil, &beta} {
				m := *base
				m.Activity, m.Options, m.Beta = act, opts, b
				for i := range cycles {
					c := &cycles[i]
					if got, want := m.CycleAmplitude(c), referenceCycleAmplitude(&m, c); math.Float64bits(got) != math.Float64bits(want) {
						t.Fatalf("%s/%s (beta %v), cycle %d: CycleAmplitude %v, reference %v", aname, oname, b != nil, i, got, want)
					}
					for s := cpu.Stage(0); s < cpu.NumStages; s++ {
						got := m.StageContribution(s, &c.Stages[s])
						want := m.MISO[s] * referenceStageSource(&m, s, &c.Stages[s], false)
						if math.Float64bits(got) != math.Float64bits(want) {
							t.Fatalf("%s/%s (beta %v), cycle %d, stage %v: StageContribution %v, reference %v",
								aname, oname, b != nil, i, s, got, want)
						}
					}
				}
			}
		}
	}
}
