package stats

import (
	"fmt"
	"math"
	"sort"
)

// Linkage selects the inter-cluster distance update rule for hierarchical
// agglomerative clustering.
type Linkage int

// Supported linkage rules.
const (
	AverageLinkage Linkage = iota
	SingleLinkage
	CompleteLinkage
)

// Dendrogram records an agglomerative clustering run.
type Dendrogram struct {
	n      int
	merges []merge
}

type merge struct {
	a, b int     // cluster ids being merged (leaf ids are 0..n-1)
	id   int     // id of the merged cluster (n, n+1, ...)
	dist float64 // distance at which the merge happened
}

// HierarchicalCluster runs agglomerative clustering over n items given a
// symmetric distance matrix (dist[i][j] = dist[j][i], dist[i][i] = 0).
// The paper uses this with a cross-correlation distance to derive the
// seven instruction clusters of Table I.
func HierarchicalCluster(dist [][]float64, link Linkage) (*Dendrogram, error) {
	n := len(dist)
	if n == 0 {
		return nil, fmt.Errorf("stats: empty distance matrix")
	}
	for i := range dist {
		if len(dist[i]) != n {
			return nil, fmt.Errorf("stats: distance matrix row %d has %d entries, want %d", i, len(dist[i]), n)
		}
	}
	// Active clusters: id -> member leaves.
	members := make(map[int][]int, n)
	for i := 0; i < n; i++ {
		members[i] = []int{i}
	}
	// Current pairwise distances between active clusters.
	d := make(map[[2]int]float64)
	key := func(a, b int) [2]int {
		if a > b {
			a, b = b, a
		}
		return [2]int{a, b}
	}
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			d[key(i, j)] = dist[i][j]
		}
	}

	clusterDist := func(a, b []int) float64 {
		switch link {
		case SingleLinkage:
			best := math.Inf(1)
			for _, i := range a {
				for _, j := range b {
					if v := dist[i][j]; v < best {
						best = v
					}
				}
			}
			return best
		case CompleteLinkage:
			worst := math.Inf(-1)
			for _, i := range a {
				for _, j := range b {
					if v := dist[i][j]; v > worst {
						worst = v
					}
				}
			}
			return worst
		default: // average
			s := 0.0
			for _, i := range a {
				for _, j := range b {
					s += dist[i][j]
				}
			}
			return s / float64(len(a)*len(b))
		}
	}

	dg := &Dendrogram{n: n}
	nextID := n
	active := make([]int, 0, n)
	for i := 0; i < n; i++ {
		active = append(active, i)
	}
	for len(active) > 1 {
		// Find the closest active pair.
		bi, bj, best := -1, -1, math.Inf(1)
		for x := 0; x < len(active); x++ {
			for y := x + 1; y < len(active); y++ {
				v := d[key(active[x], active[y])]
				if v < best {
					best, bi, bj = v, active[x], active[y]
				}
			}
		}
		merged := append(append([]int{}, members[bi]...), members[bj]...)
		dg.merges = append(dg.merges, merge{a: bi, b: bj, id: nextID, dist: best})
		// Deactivate bi/bj, activate merged cluster.
		na := active[:0]
		for _, id := range active {
			if id != bi && id != bj {
				na = append(na, id)
			}
		}
		active = append(na, nextID)
		members[nextID] = merged
		for _, id := range active[:len(active)-1] {
			d[key(id, nextID)] = clusterDist(members[id], merged)
		}
		delete(members, bi)
		delete(members, bj)
		nextID++
	}
	return dg, nil
}

// Cut returns a flat clustering with exactly k clusters by undoing the
// last k−1 merges. Each item is assigned a label in [0, k); labels are
// ordered by each cluster's smallest member index, so the output is
// deterministic.
func (dg *Dendrogram) Cut(k int) ([]int, error) {
	if k < 1 || k > dg.n {
		return nil, fmt.Errorf("stats: cut into %d clusters of %d items", k, dg.n)
	}
	// Apply the first n-k merges with a union-find.
	parent := make([]int, dg.n+len(dg.merges))
	for i := range parent {
		parent[i] = i
	}
	var find func(int) int
	find = func(x int) int {
		for parent[x] != x {
			parent[x] = parent[parent[x]]
			x = parent[x]
		}
		return x
	}
	for _, m := range dg.merges[:dg.n-k] {
		ra, rb := find(m.a), find(m.b)
		parent[ra] = m.id
		parent[rb] = m.id
		// m.id is its own root.
	}
	// Collect roots of the leaves.
	rootOf := make([]int, dg.n)
	rootSet := map[int][]int{}
	for i := 0; i < dg.n; i++ {
		r := find(i)
		rootOf[i] = r
		rootSet[r] = append(rootSet[r], i)
	}
	// Deterministic labels: order clusters by smallest member.
	type grp struct{ root, min int }
	var groups []grp
	for r, ms := range rootSet {
		min := ms[0]
		for _, m := range ms {
			if m < min {
				min = m
			}
		}
		groups = append(groups, grp{r, min})
	}
	sort.Slice(groups, func(i, j int) bool { return groups[i].min < groups[j].min })
	label := map[int]int{}
	for i, g := range groups {
		label[g.root] = i
	}
	out := make([]int, dg.n)
	for i := 0; i < dg.n; i++ {
		out[i] = label[rootOf[i]]
	}
	return out, nil
}

// CorrelationDistance converts a normalized cross-correlation in [-1, 1]
// into a distance in [0, 2] (1 − ρ), the metric the paper pairs with
// agglomerative clustering.
func CorrelationDistance(rho float64) float64 { return 1 - rho }

// DistanceMatrixFromSeries builds a symmetric correlation-distance matrix
// from a set of equal-length series. Degenerate (constant) series get the
// maximum distance to everything except other constant series that are
// identical.
func DistanceMatrixFromSeries(series [][]float64) ([][]float64, error) {
	n := len(series)
	if n == 0 {
		return nil, fmt.Errorf("stats: no series")
	}
	d := make([][]float64, n)
	for i := range d {
		d[i] = make([]float64, n)
	}
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			rho, err := Pearson(series[i], series[j])
			var dist float64
			if err != nil {
				if equalSeries(series[i], series[j]) {
					dist = 0
				} else {
					dist = 2
				}
			} else {
				dist = CorrelationDistance(rho)
			}
			d[i][j], d[j][i] = dist, dist
		}
	}
	return d, nil
}

func equalSeries(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		//emsim:ignore floatcmp bit-for-bit identity is the point: identical constant series get distance 0
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
