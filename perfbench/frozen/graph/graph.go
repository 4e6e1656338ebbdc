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
	n     int
	name  string
	edges [][2]int32
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
		edges := make([][2]int32, len(b.edges), need)
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
	b.edges = append(b.edges, [2]int32{int32(u), int32(v)})
}

// Build finalizes the graph. The builder may not be reused afterwards.
func (b *Builder) Build() *Graph {
	// slices.SortFunc compiles a concrete comparison instead of sort.Slice's
	// reflection-based swaps — see BenchmarkBuilderBuild for the effect at
	// n = 10^5. Neither sort is stable, but equal elements here are
	// identical [2]int32 values, so any order among them builds the same
	// graph.
	slices.SortFunc(b.edges, func(x, y [2]int32) int {
		if x[0] != y[0] {
			return int(x[0]) - int(y[0])
		}
		return int(x[1]) - int(y[1])
	})
	// Deduplicate in place.
	uniq := b.edges[:0]
	for i, e := range b.edges {
		if i == 0 || e != b.edges[i-1] {
			uniq = append(uniq, e)
		}
	}
	off := make([]int32, b.n+1)
	for _, e := range uniq {
		off[e[0]+1]++
		off[e[1]+1]++
	}
	for i := 0; i < b.n; i++ {
		off[i+1] += off[i]
	}
	// The adjacency array is sized exactly from the degree counts, and the
	// offset array doubles as the insertion cursor: after the fill, off[v]
	// has advanced to the start of v+1's block, so one downward shift
	// restores the CSR offsets without a separate cursor allocation.
	adj := make([]int32, 2*len(uniq))
	for _, e := range uniq {
		adj[off[e[0]]] = e[1]
		off[e[0]]++
		adj[off[e[1]]] = e[0]
		off[e[1]]++
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
