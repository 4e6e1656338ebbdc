// Package schedule builds the intra-cluster transmission schedules that
// the paper imports from Ghaffari–Haeupler–Khabbazian via Lemma 2.3: after
// a precomputation phase, cluster members can move messages to and from
// their cluster center over distance ℓ in O(ℓ + polylog n) rounds, despite
// radio collisions inside the cluster.
//
// Substitution (documented in DESIGN.md §3): instead of the GHK15
// deterministic schedule construction, the precomputation oracle equips
// every cluster with a contention-calibrated Decay ladder. For a cluster C
// let cont(x) = |N(x) ∩ C| be the number of in-cluster neighbors of a
// member x (its worst-case intra-cluster contention), and let
//
//	L(C) = ceil(log2(max_{x∈C} cont(x) + 1)) + 1.
//
// During intra-cluster propagation every participating member of C sweeps
// transmission probabilities 2^-1, 2^-2, …, 2^-L(C) in lockstep (the sweep
// index is shared because members of a cluster share slot timing). By the
// standard Decay argument, any member with at least one participating
// in-cluster neighbor receives the cluster's message with constant
// probability per sweep, so one hop of progress costs O(L(C)) rounds —
// O(log local contention) instead of the oblivious O(log n) that Decay
// pays in unknown topology, and O(1) on the bounded-degree families the
// benchmarks use. This preserves Lemma 2.3's contract (distance ℓ in
// O(ℓ·polylog-local + polylog) rounds after precomputation paid once) and
// keeps all cross-cluster collisions physically real; only intra-cluster
// coordination knowledge is precomputed, which is exactly what a schedule
// is.
package schedule

import (
	"math/bits"

	"radionet/internal/cluster"
	"radionet/internal/graph"
)

// Schedule is the per-clustering coordination data handed to every node by
// the precomputation phase.
type Schedule struct {
	// Part is the clustering this schedule serves.
	Part *cluster.Result
	// Levels[v] is the Decay-ladder length shared by v's cluster.
	Levels []int32
	// MaxLevel is the largest ladder in any cluster.
	MaxLevel int
}

// BuildScratch computes the schedule for a clustering of g, with a
// reusable contention buffer of len >= g.N() (its contents are ignored and
// overwritten); pass nil to allocate. The result is identical for every
// buffer — the scratch only recycles memory.
func BuildScratch(g *graph.Graph, part *cluster.Result, maxCont []int32) *Schedule {
	n := g.N()
	if len(maxCont) < n {
		maxCont = make([]int32, n)
	} else {
		clear(maxCont[:n])
	}
	// Worst in-cluster contention per cluster, indexed by center id.
	for x := 0; x < n; x++ {
		cx := part.Center[x]
		cont := int32(0)
		for _, w := range g.Neighbors(x) {
			if part.Center[w] == cx {
				cont++
			}
		}
		if cont > maxCont[cx] {
			maxCont[cx] = cont
		}
	}
	levels := make([]int32, n)
	maxLevel := 1
	for v := 0; v < n; v++ {
		l := ladder(int(maxCont[part.Center[v]]))
		levels[v] = int32(l)
		if l > maxLevel {
			maxLevel = l
		}
	}
	return &Schedule{Part: part, Levels: levels, MaxLevel: maxLevel}
}

// ladder returns the sweep length for worst contention c: ceil(log2(c+1))+1,
// at least 1.
func ladder(c int) int {
	if c <= 0 {
		return 1
	}
	return bits.Len(uint(c)) + 1
}
