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
	"fmt"
	"math/bits"

	"radionet/perfbench/frozen/cluster"
	"radionet/perfbench/frozen/graph"
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

// Build computes the schedule for a clustering of g.
func Build(g *graph.Graph, part *cluster.Result) *Schedule {
	return BuildScratch(g, part, nil)
}

// BuildScratch is Build with a reusable contention buffer of len >= g.N()
// (its contents are ignored and overwritten); pass nil to allocate. The
// result is identical for every buffer — the scratch only recycles memory.
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

// Prob returns the transmission probability for a node with ladder length
// level at lane-local round t: the sweep 2^-1 … 2^-level.
func Prob(level int32, t int64) float64 {
	step := t % int64(level)
	return 1 / float64(int64(2)<<uint(step))
}

// Validate checks schedule invariants against the underlying clustering.
func (s *Schedule) Validate() error {
	for v, l := range s.Levels {
		if l < 1 {
			return fmt.Errorf("node %d has ladder %d < 1", v, l)
		}
		if c := s.Part.Center[v]; s.Levels[c] != l {
			return fmt.Errorf("node %d ladder %d differs from its center's %d", v, l, s.Levels[c])
		}
	}
	return nil
}

// PrecomputeCharge returns the number of rounds the precomputation oracle
// charges for building one schedule, following Lemma 2.3's
// O(D·polylog n) preprocessing bound (constants documented in DESIGN.md).
func PrecomputeCharge(n, d int) int64 {
	logn := int64(bits.Len(uint(n)))
	return int64(d)*logn + logn*logn*logn
}
