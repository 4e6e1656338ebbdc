// Package cluster implements the exponential-shift graph clustering of
// Miller, Peng and Xu (SPAA'13) that the paper calls Partition(β)
// (Lemma 2.1), in two forms:
//
//   - a centralized reference implementation used as the precomputation
//     oracle of the Compete pipeline and by all clustering experiments, and
//   - a distributed radio-network protocol (Decay-layered wave expansion)
//     that realizes Lemma 2.1's "can be implemented in the radio network
//     setting in O(log³n/β) rounds".
//
// Partition(β) has every node v draw an exponential variate δ_v with rate
// β and assign v to the center u maximizing δ_u − dist(u, v). Guarantees
// (Lemma 2.1): strong cluster diameter O(log n/β) whp, and every edge is
// cut with probability O(β). Theorem 2.2 (the paper's key analytic
// contribution) concerns the expected distance to the cluster center when
// β = 2^-j for a random j ∈ [0.01·log D, 0.1·log D].
package cluster

import (
	"fmt"
	"math"

	"radionet/perfbench/frozen/graph"
	"radionet/perfbench/frozen/rng"
)

// Result is a clustering of a graph: an assignment of every node to a
// cluster center such that centers are their own centers and every cluster
// induces a connected subgraph containing a shortest path from each member
// to the center.
type Result struct {
	Beta   float64
	Center []int32   // Center[v] = v's cluster center
	Parent []int32   // forest edges toward the center; Parent[center] = -1
	Dist   []int32   // hop distance from v to Center[v]
	Delta  []float64 // the exponential shifts used

	g *graph.Graph
}

// item is a priority-queue entry for the multi-source Dijkstra.
type item struct {
	key    float64 // dist(u, v) - δ_v, to be minimized
	node   int32
	center int32
	parent int32
	dist   int32
}

// The priority queue is a hand-rolled binary min-heap over the concrete
// item type. The sift routines replicate container/heap's up/down moves
// (same comparisons, same swaps), so the pop order — including the order
// of equal keys — is exactly what heap.Init/Push/Pop produced before the
// rewrite; what changed is that pushes no longer box every item through
// an interface allocation, which dominated Partition's cost.

func heapUp(q []item, j int) {
	for j > 0 {
		i := (j - 1) / 2 // parent
		if q[j].key >= q[i].key {
			break
		}
		q[i], q[j] = q[j], q[i]
		j = i
	}
}

func heapDown(q []item, i0, n int) {
	i := i0
	for {
		j1 := 2*i + 1
		if j1 >= n || j1 < 0 { // j1 < 0 after int overflow
			break
		}
		j := j1 // left child
		if j2 := j1 + 1; j2 < n && q[j2].key < q[j1].key {
			j = j2 // = 2*i + 2  // right child
		}
		if q[j].key >= q[i].key {
			break
		}
		q[i], q[j] = q[j], q[i]
		i = j
	}
}

// Scratch holds reusable Partition buffers (the priority-queue backing
// array and the settled bitmap), letting callers that build many
// partitions of one graph — the Compete precomputation, trial campaigns —
// skip the per-call allocations. The zero value is ready to use; a Scratch
// is not safe for concurrent use.
type Scratch struct {
	pq      []item
	settled []bool
}

// Partition runs the centralized Partition(β) on g using randomness from
// r. It panics if beta <= 0.
func Partition(g *graph.Graph, beta float64, r *rng.Rand) *Result {
	return PartitionScratch(g, beta, r, nil)
}

// PartitionScratch is Partition with reusable build buffers; scr may be
// nil. The result is bit-identical for every scr — the scratch only
// recycles memory.
func PartitionScratch(g *graph.Graph, beta float64, r *rng.Rand, scr *Scratch) *Result {
	if beta <= 0 {
		panic("cluster: Partition requires beta > 0")
	}
	n := g.N()
	res := &Result{
		Beta:   beta,
		Center: make([]int32, n),
		Parent: make([]int32, n),
		Dist:   make([]int32, n),
		Delta:  make([]float64, n),
		g:      g,
	}
	var q []item
	var settled []bool
	if scr != nil {
		q = scr.pq[:0]
		if cap(scr.settled) >= n {
			settled = scr.settled[:n]
			clear(settled)
		}
	}
	if settled == nil {
		settled = make([]bool, n)
	}
	if cap(q) < n {
		q = make([]item, 0, n)
	}
	for v := 0; v < n; v++ {
		res.Center[v] = -1
		res.Parent[v] = -1
		res.Delta[v] = r.Exp(beta)
	}
	// Multi-source Dijkstra: node v is a virtual source with offset -δ_v;
	// the first settlement of u determines its center. Unit edge weights
	// mean the settled path is a shortest path to the center, and by the
	// MPX argument every node on it belongs to the same cluster, so Dist
	// is the strong (intra-cluster) distance to the center.
	for v := 0; v < n; v++ {
		q = append(q, item{key: -res.Delta[v], node: int32(v), center: int32(v), parent: -1})
	}
	for i := n/2 - 1; i >= 0; i-- { // heap.Init
		heapDown(q, i, n)
	}
	remaining := n
	for remaining > 0 && len(q) > 0 {
		last := len(q) - 1 // heap.Pop
		q[0], q[last] = q[last], q[0]
		heapDown(q, 0, last)
		it := q[last]
		q = q[:last]
		v := it.node
		if settled[v] {
			continue
		}
		settled[v] = true
		remaining--
		res.Center[v] = it.center
		res.Parent[v] = it.parent
		res.Dist[v] = it.dist
		for _, w := range g.Neighbors(int(v)) {
			if !settled[w] {
				q = append(q, item{ // heap.Push
					key:    it.key + 1,
					node:   w,
					center: it.center,
					parent: v,
					dist:   it.dist + 1,
				})
				heapUp(q, len(q)-1)
			}
		}
	}
	if scr != nil {
		scr.pq = q[:0]
		scr.settled = settled
	}
	return res
}

// NumClusters returns the number of distinct cluster centers.
func (r *Result) NumClusters() int {
	seen := make(map[int32]bool)
	for _, c := range r.Center {
		seen[c] = true
	}
	return len(seen)
}

// Clusters returns the members of every cluster keyed by center.
func (r *Result) Clusters() map[int32][]int32 {
	m := make(map[int32][]int32)
	for v, c := range r.Center {
		m[c] = append(m[c], int32(v))
	}
	return m
}

// IsCut reports whether edge {u, v} has endpoints in distinct clusters.
func (r *Result) IsCut(u, v int) bool { return r.Center[u] != r.Center[v] }

// CutFraction returns the fraction of edges cut by the partition.
func (r *Result) CutFraction() float64 {
	if r.g.M() == 0 {
		return 0
	}
	cut := 0
	r.g.Edges(func(u, v int) bool {
		if r.IsCut(u, v) {
			cut++
		}
		return true
	})
	return float64(cut) / float64(r.g.M())
}

// StrongRadius returns, for each center, the maximum intra-cluster hop
// distance from the center to a member (the strong radius; the strong
// diameter is at most twice this).
func (r *Result) StrongRadius() map[int32]int32 {
	out := make(map[int32]int32)
	for v, c := range r.Center {
		if r.Dist[v] > out[c] {
			out[c] = r.Dist[v]
		}
		_ = v
	}
	return out
}

// MaxStrongRadius returns the largest strong radius over all clusters.
func (r *Result) MaxStrongRadius() int {
	max := int32(0)
	for _, d := range r.Dist {
		if d > max {
			max = d
		}
	}
	return int(max)
}

// BordersOtherCluster reports whether v has a neighbor assigned to a
// different cluster (the paper's "risky" nodes of Lemma 4.2).
func (r *Result) BordersOtherCluster(v int) bool {
	for _, w := range r.g.Neighbors(v) {
		if r.Center[w] != r.Center[v] {
			return true
		}
	}
	return false
}

// ClustersWithin returns the number of distinct clusters having a node at
// distance <= d from v (Lemma 4.3's quantity).
func (r *Result) ClustersWithin(v, d int) int {
	dist := r.g.BFS(v)
	seen := make(map[int32]bool)
	for u, du := range dist {
		if du != graph.Unreached && int(du) <= d {
			seen[r.Center[u]] = true
		}
	}
	return len(seen)
}

// Validate checks the structural invariants of a partition and returns an
// error describing the first violation found.
func (r *Result) Validate() error {
	n := r.g.N()
	for v := 0; v < n; v++ {
		c := r.Center[v]
		if c < 0 || int(c) >= n {
			return fmt.Errorf("node %d has invalid center %d", v, c)
		}
		if r.Center[c] != c {
			return fmt.Errorf("center %d of node %d is not its own center", c, v)
		}
		if int(c) == v {
			if r.Dist[v] != 0 || r.Parent[v] != -1 {
				return fmt.Errorf("center %d has dist %d parent %d", v, r.Dist[v], r.Parent[v])
			}
			continue
		}
		p := r.Parent[v]
		if p < 0 {
			return fmt.Errorf("non-center node %d has no parent", v)
		}
		if !r.g.HasEdge(v, int(p)) {
			return fmt.Errorf("parent edge %d-%d not in graph", v, p)
		}
		if r.Center[p] != c {
			return fmt.Errorf("node %d (cluster %d) has parent %d in cluster %d",
				v, c, p, r.Center[p])
		}
		if r.Dist[v] != r.Dist[p]+1 {
			return fmt.Errorf("node %d dist %d but parent dist %d", v, r.Dist[v], r.Dist[p])
		}
	}
	return nil
}

// JRange returns the paper's range of the random exponent j for fine
// clusterings: j uniform in [loFrac·log2 D, hiFrac·log2 D] (Theorem 2.2
// uses 0.01 and 0.1). The range is clamped so that at least one valid j
// exists (j >= 1) even at laptop-scale diameters where 0.01·log D < 1.
func JRange(d int, loFrac, hiFrac float64) (jmin, jmax int) {
	if d < 2 {
		return 1, 1
	}
	logD := math.Log2(float64(d))
	jmin = int(math.Floor(loFrac * logD))
	jmax = int(math.Ceil(hiFrac * logD))
	if jmin < 1 {
		jmin = 1
	}
	if jmax < jmin {
		jmax = jmin
	}
	return jmin, jmax
}
