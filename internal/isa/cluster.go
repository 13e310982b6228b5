package isa

import "fmt"

// Cluster identifies one of the seven instruction clusters of Table I.
// The paper groups RV32IM instructions by the similarity of their EM
// signatures (hierarchical agglomerative clustering with cross-correlation
// distance) and finds seven clusters; a single representative per cluster is
// enough to train the model, shrinking the measurement campaign from ~3·10⁸
// to 16 k sequences.
//
// Loads appear in two clusters: ClusterLoad is a load whose data comes from
// memory (cache miss, "LDM" in Table II), ClusterCache a load served by the
// cache ("LDC"). Which applies is a runtime property; DynamicCluster resolves
// it per access.
type Cluster uint8

const (
	ClusterALU    Cluster = iota // integer ALU, LUI/AUIPC, JAL/JALR (13 inst)
	ClusterShift                 // shifts, immediate and register (10... per paper grouping)
	ClusterMulDiv                // M-extension multi-cycle ops (8 inst)
	ClusterLoad                  // loads that go to memory (5 inst)
	ClusterStore                 // stores (3 inst)
	ClusterCache                 // loads served by the cache (5 inst)
	ClusterBranch                // conditional branches (6 inst)

	NumClusters = 7
)

var clusterNames = [NumClusters]string{
	"ALU", "Shift", "MUL/DIV", "Load", "Store", "Cache", "Branch",
}

// String returns the Table I name of the cluster.
func (c Cluster) String() string {
	if int(c) < len(clusterNames) {
		return clusterNames[c]
	}
	return fmt.Sprintf("cluster(%d)", uint8(c))
}

// Valid reports whether c is one of the seven defined clusters.
func (c Cluster) Valid() bool { return c < NumClusters }

// StaticCluster maps a mnemonic to its Table I cluster assuming cache hits
// for loads (the common case). Use DynamicCluster when the hit/miss outcome
// is known. Everything outside the shift, MUL/DIV, load, store and branch
// clusters — ALU ops, LUI/AUIPC, jumps, system, FENCE — shares the ALU
// datapath footprint (Table I folds JAL into the ALU cluster).
//
//emsim:noalloc
func StaticCluster(o Op) Cluster { return ops[o].cluster }

// DynamicCluster maps a mnemonic plus the observed cache outcome to the
// runtime cluster: loads that miss move from ClusterCache to ClusterLoad.
//
//emsim:noalloc
func DynamicCluster(o Op, cacheHit bool) Cluster {
	if o.IsLoad() && !cacheHit {
		return ClusterLoad
	}
	return StaticCluster(o)
}

// Representatives returns one canonical instruction mnemonic per cluster,
// mirroring the representative-instruction methodology of §V-A.
func Representatives() [NumClusters]Op {
	return [NumClusters]Op{
		ClusterALU:    ADD,
		ClusterShift:  SLLI,
		ClusterMulDiv: MUL,
		ClusterLoad:   LW, // with a miss-forcing access pattern
		ClusterStore:  SW,
		ClusterCache:  LW,
		ClusterBranch: BEQ,
	}
}

// ClusterMembers returns the mnemonics Table I assigns to the cluster, in
// declaration order. The loads belong to both ClusterLoad and
// ClusterCache; ECALL, EBREAK and FENCE are outside Table I.
func ClusterMembers(c Cluster) []Op {
	var members []Op
	for _, o := range AllOps() {
		if o.IsSystem() || o == FENCE {
			continue
		}
		if StaticCluster(o) == c || c == ClusterLoad && o.IsLoad() {
			members = append(members, o)
		}
	}
	return members
}

// AllOps returns every valid mnemonic, in declaration order.
func AllOps() []Op {
	all := make([]Op, 0, NumOps)
	for o := OpInvalid + 1; o < numOps; o++ {
		all = append(all, o)
	}
	return all
}
