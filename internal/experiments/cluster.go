package experiments

import (
	"fmt"
	"sort"

	"emsim/internal/asm"
	"emsim/internal/cpu"
	"emsim/internal/isa"
	"emsim/internal/stats"
)

// TableIResult is the instruction-clustering experiment: hierarchical
// agglomerative clustering of measured per-instruction EM signatures with
// a cross-correlation distance, cut at 7 clusters (Table I).
type TableIResult struct {
	// Items are the clustered instruction labels ("add", "lw(miss)", ...).
	Items []string
	// Labels are the assigned cluster ids, parallel to Items.
	Labels []int
	// Expected are the Table I cluster ids, parallel to Items.
	Expected []isa.Cluster
	// PairAgreement is the Rand index between found and expected
	// clusterings (fraction of instruction pairs on which they agree).
	PairAgreement float64
	// NumClusters is the cut size (7, as in the paper).
	NumClusters int
}

// clusterProbe is one instruction to fingerprint.
type clusterProbe struct {
	label    string
	inst     isa.Inst
	expected isa.Cluster
	miss     bool       // measure the cache-miss variant of a load
	pre      []isa.Inst // extra setup (e.g., operand values for branches)
}

// tableIProbes returns the instruction set Table I covers: every
// non-system RV32IM mnemonic (JALR excluded: with zero operands it jumps
// to address 0), with loads measured in both hit and miss variants.
func tableIProbes() []clusterProbe {
	var probes []clusterProbe
	for _, op := range isa.AllOps() {
		if op.IsSystem() || op == isa.FENCE || op == isa.JALR {
			continue
		}
		switch {
		case op.IsLoad():
			probes = append(probes,
				clusterProbe{label: op.String() + "(hit)", inst: isa.Inst{Op: op, Rd: isa.X1, Rs1: isa.X1}, expected: isa.ClusterCache},
				clusterProbe{label: op.String() + "(miss)", inst: isa.Inst{Op: op, Rd: isa.X1, Rs1: isa.X1}, expected: isa.ClusterLoad, miss: true},
			)
		case op.IsStore():
			probes = append(probes, clusterProbe{
				label: op.String(), inst: isa.Inst{Op: op, Rs1: isa.X1, Rs2: isa.X1}, expected: isa.ClusterStore})
		case op.IsBranch():
			// Choose operands so every branch falls through (not taken),
			// keeping all six windows control-flow-identical as Table I
			// assumes "similar operands": compare 1 vs 0 in the direction
			// that fails.
			rs1, rs2 := isa.X1, isa.X2 // x1 = 1, x2 = 0 (set in pre)
			switch op {
			case isa.BGE, isa.BGEU:
				rs1, rs2 = isa.X2, isa.X1 // 0 >= 1 is false
			case isa.BNE:
				rs1, rs2 = isa.X1, isa.X1 // 1 != 1 is false
			}
			probes = append(probes, clusterProbe{
				label:    op.String(),
				inst:     isa.Inst{Op: op, Rs1: rs1, Rs2: rs2, Imm: 8},
				expected: isa.ClusterBranch,
				pre:      []isa.Inst{isa.Addi(isa.X1, isa.Zero, 1)},
			})
		case op == isa.JAL:
			probes = append(probes, clusterProbe{
				label: op.String(), inst: isa.Jal(isa.X1, 4), expected: isa.ClusterALU})
		case op == isa.LUI:
			probes = append(probes, clusterProbe{label: op.String(), inst: isa.Lui(isa.X1, 0), expected: isa.ClusterALU})
		case op == isa.AUIPC:
			probes = append(probes, clusterProbe{label: op.String(), inst: isa.Auipc(isa.X1, 0), expected: isa.ClusterALU})
		default:
			expected := isa.StaticCluster(op)
			in := isa.Inst{Op: op, Rd: isa.X1, Rs1: isa.X1}
			if op.Format() == isa.FormatR {
				in.Rs2 = isa.X1
			}
			probes = append(probes, clusterProbe{label: op.String(), inst: in, expected: expected})
		}
	}
	return probes
}

// signature measures the EM waveform of one probe instruction embedded in
// NOPs, aligned on the cycle it enters EX.
func (e *Env) signature(p clusterProbe) ([]float64, error) {
	b := asm.NewBuilder()
	b.Nop(8)
	if p.miss {
		// A fresh line nobody has touched.
		b.Li(isa.X1, 0x50000)
		b.Nop(6)
	} else if p.inst.Op.IsLoad() || p.inst.Op.IsStore() {
		// Warm address 0 so the access hits (with a store, whose mnemonic
		// can never collide with the probe's alignment match below).
		b.I(isa.Sw(isa.X3, isa.Zero, 0))
		b.Nop(8)
	}
	if len(p.pre) > 0 {
		b.I(p.pre...)
		b.Nop(6)
	}
	b.I(p.inst)
	b.Nop(14)
	b.I(isa.Ebreak())
	words := b.MustAssemble().Words

	sig, err := e.Dev.MeasureAveraged(words, e.Runs)
	if err != nil {
		return nil, err
	}
	// The device's configuration replays the run the capture came from.
	tr, err := cpu.MustNew(e.Dev.Options().CPU).RunProgram(words)
	if err != nil {
		return nil, err
	}
	spc := e.Dev.SamplesPerCycle()
	// Align on the probe's first active EX cycle, matching the exact
	// instruction (opcode matching alone would hit the NOPs for ADDI or
	// the warm-up access for loads).
	exAt := -1
	for i := range tr {
		st := &tr[i].Stages[cpu.EX]
		if st.Inst == p.inst && !st.Bubble && !st.Stalled && st.Seq >= 0 {
			exAt = i
			break
		}
	}
	if exAt < 2 {
		return nil, fmt.Errorf("experiments: probe %s never reached EX", p.label)
	}
	lo := (exAt - 2) * spc
	hi := lo + 14*spc
	if hi > len(sig) {
		hi = len(sig)
	}
	return sig[lo:hi], nil
}

// TableI runs the clustering experiment.
func (e *Env) TableI() (*TableIResult, error) {
	probes := tableIProbes()
	series := make([][]float64, 0, len(probes))
	minLen := -1
	for _, p := range probes {
		s, err := e.signature(p)
		if err != nil {
			return nil, err
		}
		series = append(series, s)
		if minLen < 0 || len(s) < minLen {
			minLen = len(s)
		}
	}
	for i := range series {
		series[i] = series[i][:minLen]
	}
	dist, err := stats.DistanceMatrixFromSeries(series)
	if err != nil {
		return nil, err
	}
	dg, err := stats.HierarchicalCluster(dist, stats.AverageLinkage)
	if err != nil {
		return nil, err
	}
	labels, err := dg.Cut(isa.NumClusters)
	if err != nil {
		return nil, err
	}
	res := &TableIResult{NumClusters: isa.NumClusters}
	for i, p := range probes {
		res.Items = append(res.Items, p.label)
		res.Labels = append(res.Labels, labels[i])
		res.Expected = append(res.Expected, p.expected)
	}
	res.PairAgreement = randIndex(res.Labels, res.Expected)
	return res, nil
}

// randIndex computes the Rand index between a found labeling and the
// expected clusters: the fraction of item pairs that both clusterings
// treat the same way (together or apart).
func randIndex(found []int, expected []isa.Cluster) float64 {
	n := len(found)
	if n < 2 {
		return 1
	}
	agree, total := 0, 0
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			sameFound := found[i] == found[j]
			sameExp := expected[i] == expected[j]
			if sameFound == sameExp {
				agree++
			}
			total++
		}
	}
	return float64(agree) / float64(total)
}

func (r *TableIResult) String() string {
	// Group items by found label.
	groups := map[int][]string{}
	for i, l := range r.Labels {
		groups[l] = append(groups[l], r.Items[i])
	}
	var keys []int
	for k := range groups {
		keys = append(keys, k)
	}
	sort.Ints(keys)
	rows := make([][]string, 0, len(keys))
	for _, k := range keys {
		sort.Strings(groups[k])
		rows = append(rows, []string{fmt.Sprintf("%d", k+1), fmt.Sprintf("%d", len(groups[k])), stringsJoin(groups[k], ", ")})
	}
	return "Table I — instruction clustering by EM signature (7 clusters, cross-correlation distance)\n" +
		table([]string{"cluster", "#", "instructions"}, rows) +
		fmt.Sprintf("pairwise agreement with Table I grouping: %s\n", fmtPct(r.PairAgreement))
}
