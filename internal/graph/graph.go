// Package graph provides the static undirected graphs on which radio
// networks are simulated: a compact CSR representation, deterministic
// generators for the topology families used throughout the experiments,
// and the BFS/diameter/shortest-path utilities the clustering and
// scheduling layers rely on.
//
// Radio networks in the paper are connected undirected graphs N = (V, E)
// with n = |V| nodes and diameter D. Nodes are identified by dense integer
// ids 0..n-1.
package graph

import (
	"fmt"
	"slices"
	"sort"
	"sync"
)

// Graph is an immutable undirected graph in compressed sparse row form.
// Construct one with a Builder or a generator; the zero value is an empty
// graph with no nodes.
type Graph struct {
	name string
	off  []int32 // len n+1; adjacency of v is adj[off[v]:off[v+1]]
	adj  []int32

	// Lazily built dense-adjacency layer (see bitadj.go). Graphs are shared
	// across concurrently running trials, so the build is Once-guarded.
	denseOnce sync.Once
	dense     *AdjBits
	// Lazily built id-difference band layer (see bands.go), Once-guarded
	// for the same reason.
	bandsOnce sync.Once
	bands     *Bands
}

// N returns the number of nodes.
func (g *Graph) N() int {
	if len(g.off) == 0 {
		return 0
	}
	return len(g.off) - 1
}

// M returns the number of undirected edges.
func (g *Graph) M() int { return len(g.adj) / 2 }

// Name returns the human-readable family name given at construction.
func (g *Graph) Name() string { return g.name }

// Degree returns the number of neighbors of v.
func (g *Graph) Degree(v int) int { return int(g.off[v+1] - g.off[v]) }

// Neighbors returns the neighbor list of v. The returned slice aliases the
// graph's internal storage and must not be modified.
func (g *Graph) Neighbors(v int) []int32 { return g.adj[g.off[v]:g.off[v+1]] }

// HasEdge reports whether {u, v} is an edge. Cost is O(log deg(u)).
func (g *Graph) HasEdge(u, v int) bool {
	nb := g.Neighbors(u)
	i := sort.Search(len(nb), func(i int) bool { return nb[i] >= int32(v) })
	return i < len(nb) && nb[i] == int32(v)
}

// Edges calls fn once per undirected edge with u < v. It stops early if fn
// returns false.
func (g *Graph) Edges(fn func(u, v int) bool) {
	n := g.N()
	for u := 0; u < n; u++ {
		for _, w := range g.Neighbors(u) {
			v := int(w)
			if u < v && !fn(u, v) {
				return
			}
		}
	}
}

// MaxDegree returns the maximum degree, or 0 for the empty graph.
func (g *Graph) MaxDegree() int {
	max := 0
	for v := 0; v < g.N(); v++ {
		if d := g.Degree(v); d > max {
			max = d
		}
	}
	return max
}

// String implements fmt.Stringer with a short summary.
func (g *Graph) String() string {
	return fmt.Sprintf("%s(n=%d, m=%d)", g.name, g.N(), g.M())
}

// Builder accumulates edges and produces a Graph. Duplicate edges and
// self-loops are discarded.
type Builder struct {
	n    int
	name string
	// edges packs each edge {u, v}, u < v, as uint64(u)<<32 | v; Build
	// puts the keys in (u, v) order in place (see sortEdges).
	edges []uint64
}

// NewBuilder returns a builder for a graph on n nodes.
func NewBuilder(name string, n int) *Builder {
	if n < 0 {
		panic("graph: negative node count")
	}
	return &Builder{n: n, name: name}
}

// Reserve grows the builder's edge buffer so that at least m further
// AddEdge calls proceed without reallocation. Generators that know their
// edge count up front use this to avoid the doubling-growth garbage that
// otherwise dominates Build's allocation profile.
func (b *Builder) Reserve(m int) {
	if m <= 0 {
		return
	}
	if need := len(b.edges) + m; cap(b.edges) < need {
		edges := make([]uint64, len(b.edges), need)
		copy(edges, b.edges)
		b.edges = edges
	}
}

// AddEdge records the undirected edge {u, v}. Self-loops are ignored.
// It panics if an endpoint is out of range.
func (b *Builder) AddEdge(u, v int) {
	if u < 0 || u >= b.n || v < 0 || v >= b.n {
		panic(fmt.Sprintf("graph: edge (%d,%d) out of range [0,%d)", u, v, b.n))
	}
	if u == v {
		return
	}
	if u > v {
		u, v = v, u
	}
	b.edges = append(b.edges, uint64(u)<<32|uint64(v))
}

// unpackEdge splits a packed Builder edge into its endpoints u < v.
func unpackEdge(e uint64) (u, v int32) { return int32(e >> 32), int32(uint32(e)) }

// Build finalizes the graph. The builder may not be reused afterwards.
//
// Construction is O(n + m). The adjacency array is allocated once, at 2m
// entries, and its first half stages sortEdges's scatter before the CSR
// fill overwrites it. Keys that arrive in order, as most deterministic
// generators' do, skip the sort.
func (b *Builder) Build() *Graph {
	adj := make([]int32, 2*len(b.edges))
	off := make([]int32, b.n+1)
	if !slices.IsSorted(b.edges) {
		sortEdges(b.edges, b.n, adj[:len(b.edges)], off)
	}
	// Deduplicate in place.
	uniq := b.edges[:0]
	for i, e := range b.edges {
		if i == 0 || e != b.edges[i-1] {
			uniq = append(uniq, e)
		}
	}
	for _, e := range uniq {
		u, v := unpackEdge(e)
		off[u+1]++
		off[v+1]++
	}
	for i := 0; i < b.n; i++ {
		off[i+1] += off[i]
	}
	// The adjacency array is resliced to the deduplicated edge count, and
	// the offset array doubles as the insertion cursor: after the fill,
	// off[v] has advanced to the start of v+1's block, so one downward
	// shift restores the CSR offsets without a separate cursor allocation.
	adj = adj[:2*len(uniq)]
	for _, e := range uniq {
		u, v := unpackEdge(e)
		adj[off[u]] = v
		off[u]++
		adj[off[v]] = u
		off[v]++
	}
	for v := b.n; v > 0; v-- {
		off[v] = off[v-1]
	}
	off[0] = 0
	g := &Graph{name: b.name, off: off, adj: adj}
	// Each neighbor list comes out sorted without any per-vertex re-sort:
	// edges are sorted by (u, v) with u < v, so for a vertex w the
	// reverse-direction entries (sources u < w) are appended in ascending
	// u order, all before the forward-direction entries (targets v > w),
	// which are themselves appended in ascending v order — a sorted run of
	// values < w followed by a sorted run of values > w. A linear check
	// guards the HasEdge invariant (and would repair it if the fill logic
	// ever changed), replacing the former O(deg·log deg) re-sort per
	// vertex with an O(deg) verification.
	for v := 0; v < b.n; v++ {
		nb := g.adj[g.off[v]:g.off[v+1]]
		for i := 1; i < len(nb); i++ {
			if nb[i-1] > nb[i] {
				slices.Sort(nb)
				break
			}
		}
	}
	return g
}

// sortEdges orders packed edge keys on n nodes by (u, v) with two stable
// counting passes. stage must hold len(edges) entries and off n+1 zeros;
// both are scratch, and off is zeroed again on return. Besides them it
// allocates one n+1 counter and no m-sized temporary: the keys are
// written back into edges itself.
func sortEdges(edges []uint64, n int, stage, off []int32) {
	cnt := make([]int32, n+1)
	// Pass 1 buckets the keys by v: cnt becomes the v-bucket starts and
	// off the u-bucket starts, then each key's u is staged at its
	// v-cursor. Afterwards cnt[v] is the end of v's bucket.
	for _, e := range edges {
		u, v := unpackEdge(e)
		cnt[v+1]++
		off[u+1]++
	}
	for i := 0; i < n; i++ {
		cnt[i+1] += cnt[i]
		off[i+1] += off[i]
	}
	for _, e := range edges {
		u, v := unpackEdge(e)
		stage[cnt[v]] = u
		cnt[v]++
	}
	// Pass 2 walks the v-buckets in ascending v and writes each key back
	// at its u-cursor. Within a u-bucket the keys arrive in ascending v,
	// so edges ends up sorted by (u, v).
	lo := int32(0)
	for v := 0; v < n; v++ {
		hi := cnt[v]
		for _, u := range stage[lo:hi] {
			edges[off[u]] = uint64(u)<<32 | uint64(v)
			off[u]++
		}
		lo = hi
	}
	clear(off)
}
