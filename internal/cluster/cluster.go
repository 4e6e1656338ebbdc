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
	"cmp"
	"fmt"
	"math"
	"slices"

	"radionet/internal/graph"
	"radionet/internal/rng"
)

// Result is a clustering of a graph: an assignment of every node to a
// cluster center such that centers are their own centers and every cluster
// induces a connected subgraph containing a shortest path from each member
// to the center.
type Result struct {
	Beta   float64
	Center []int32 // Center[v] = v's cluster center
	// Parent holds forest edges toward the center; Parent[center] = -1.
	// Parent[v] is a neighbour of v in its cluster with Dist one less. When
	// several qualify, Partition picks the one it settled first.
	Parent []int32
	Dist   []int32   // hop distance from v to Center[v]
	Delta  []float64 // the exponential shifts used

	g *graph.Graph
}

// entry is a Partition queue entry: a node and its candidate key
// dist(c, node) - δ_c for some center c, to be minimized.
type entry struct {
	key  float64
	node int32
}

// Per-node states of the Partition build.
const (
	unseen  uint8 = iota
	queued        // in the FIFO, with a tentative center, parent and dist
	settled       // center, parent and dist are final
)

// Scratch holds reusable Partition buffers (the bucketed sources and their
// bucket bounds, the FIFO of nodes reached through an edge and the
// per-node state array), letting callers that build many partitions of
// one graph — the Compete precomputation, trial campaigns — skip the
// per-call allocations. The zero value is ready to use; a Scratch is not
// safe for concurrent use.
type Scratch struct {
	src   []entry
	ends  []int32 // bucket b of src ends at ends[b]
	fifo  []entry
	state []uint8
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
	if n == 0 {
		return res
	}
	if scr == nil {
		scr = new(Scratch)
	}
	if cap(scr.src) < n {
		scr.src = make([]entry, n)
		scr.ends = make([]int32, n+1)
		scr.fifo = make([]entry, 0, n)
		scr.state = make([]uint8, n)
	}
	src, fifo, state := scr.src[:n], scr.fifo[:0], scr.state[:n]
	clear(state)
	minDelta, maxDelta := math.Inf(1), 0.0
	for v := 0; v < n; v++ {
		d := r.Exp(beta)
		res.Delta[v] = d
		minDelta, maxDelta = min(minDelta, d), max(maxDelta, d)
	}
	ends := bucketSources(src, scr.ends, res.Delta, minDelta, maxDelta)
	// Multi-source Dijkstra with unit edge weights: node v is a virtual
	// source with key -δ_v, and the first settlement of u determines its
	// center. The settled path is a shortest path to the center, and by
	// the MPX argument every node on it belongs to the same cluster, so
	// Dist is the strong (intra-cluster) distance to the center.
	//
	// No heap is needed. Every push has key popped.key + 1, and popped
	// keys never decrease, so pushes arrive in key order: the FIFO stays
	// sorted, and merging it with the sources in (key, node) order pops
	// in Dijkstra order. A node's first push therefore carries its
	// smallest pushed key, so each node is queued at most once, and its
	// tentative center, parent and dist are written to res at that push.
	//
	// The sources are bucketed by key, and a bucket is sorted only when
	// the merge first reads from it: src[:sorted] is in final order, and
	// the merge usually settles every node long before it reaches the
	// last bucket. Once no node is unseen, a pop can push nothing, so the
	// remaining pops settle their node without scanning its neighbours.
	i, h, sorted, bk := 0, 0, 0, 0
	fresh := n // nodes still unseen
	for left := n; left > 0; {
		if i == sorted && i < n {
			for int(ends[bk]) == sorted {
				bk++
			}
			sorted = int(ends[bk])
			slices.SortFunc(src[i:sorted], compareEntries)
		}
		var e entry
		if h < len(fifo) && (i == n || fifo[h].key < src[i].key) {
			e = fifo[h]
			h++
			if state[e.node] == settled {
				continue
			}
		} else {
			e = src[i]
			i++
			switch state[e.node] {
			case settled:
				continue
			case unseen:
				fresh--
			}
			res.Center[e.node], res.Parent[e.node], res.Dist[e.node] = e.node, -1, 0
		}
		v := e.node
		state[v] = settled
		left--
		if fresh == 0 {
			continue
		}
		c, d := res.Center[v], res.Dist[v]+1
		for _, w := range g.Neighbors(int(v)) {
			if state[w] == unseen {
				state[w] = queued
				fresh--
				res.Center[w], res.Parent[w], res.Dist[w] = c, v, d
				fifo = append(fifo, entry{key: e.key + 1, node: w})
			}
		}
	}
	return res
}

// bucketSources fills src with the n sources entry{-delta[v], v} grouped
// into buckets of ascending key, in one counting pass in node order, and
// returns the bucket ends: bucket b is src[ends[b-1]:ends[b]] (from 0
// for b = 0). Bucket b holds the keys with ⌊(key − min key)/w⌋ = b, where
// the width w is 1 unless that would make more than n buckets, in which
// case it widens to give exactly n. Every key in a bucket is at most
// every key in the next, and a bucket lists its nodes in ascending order,
// so sorting the buckets one by one on (key, node) yields the full sorted
// order. ends must have room for n+1 entries.
func bucketSources(src []entry, ends []int32, delta []float64, minDelta, maxDelta float64) []int32 {
	n := len(src)
	// key − min key = maxDelta − δ_v lies in [0, span].
	span := maxDelta - minDelta
	nb, scale := 1, 0.0
	switch {
	case !(span < math.MaxFloat64): // an infinite δ: one bucket, sorted whole
	case span < float64(n):
		nb, scale = int(span)+1, 1
	default:
		nb, scale = n, float64(n-1)/span
	}
	bucket := func(d float64) int {
		if nb == 1 {
			return 0
		}
		return min(int((maxDelta-d)*scale), nb-1)
	}
	// Count into ends[b+1], prefix-sum so ends[b] is bucket b's start,
	// then place: each placement advances ends[b], which ends at the
	// bucket's end.
	cnt := ends[:nb+1]
	clear(cnt)
	for _, d := range delta {
		cnt[bucket(d)+1]++
	}
	for b := 1; b < nb; b++ {
		cnt[b] += cnt[b-1]
	}
	for v, d := range delta {
		b := bucket(d)
		src[cnt[b]] = entry{key: -d, node: int32(v)}
		cnt[b]++
	}
	return cnt[:nb]
}

// compareEntries orders sources by key, then node.
func compareEntries(a, b entry) int {
	if c := cmp.Compare(a.key, b.key); c != 0 {
		return c
	}
	return cmp.Compare(a.node, b.node)
}

// NumClusters returns the number of clusters: the nodes that are their
// own center (on a Result that passes Validate, the distinct centers).
func (r *Result) NumClusters() int {
	k := 0
	for v, c := range r.Center {
		if int(c) == v {
			k++
		}
	}
	return k
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

// fineLoFrac and fineHiFrac bound the random fine exponent j of the
// Compete pipeline's fine clusterings: j ∈ [lo·log2 D, hi·log2 D]
// [paper 0.01 and 0.1 (Theorem 2.2); used 0.25 and 0.75, DESIGN.md §3].
const (
	fineLoFrac = 0.25
	fineHiFrac = 0.75
)

// JRange returns the range of the random exponent j for fine clusterings:
// j uniform in [fineLoFrac·log2 D, fineHiFrac·log2 D], clamped so that at
// least one valid j exists (j >= 1) at small diameters.
func JRange(d int) (jmin, jmax int) {
	if d < 2 {
		return 1, 1
	}
	logD := math.Log2(float64(d))
	jmin = int(math.Floor(fineLoFrac * logD))
	jmax = int(math.Ceil(fineHiFrac * logD))
	if jmin < 1 {
		jmin = 1
	}
	if jmax < jmin {
		jmax = jmin
	}
	return jmin, jmax
}
