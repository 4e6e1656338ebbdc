package graph

import (
	"fmt"
	"sort"
)

// FromCSR reconstructs a Graph directly from compressed-sparse-row arrays,
// validating every structural invariant the Builder would have established:
// offsets are monotone and span adj exactly, neighbor ids are in range with
// no self-loops, each neighbor list is strictly ascending (no duplicate
// edges, and HasEdge's binary search stays sound), and the adjacency is
// symmetric. The slices are adopted, not copied; the caller must not modify
// them afterwards. This is the trusted-decode seam for the precompute disk
// cache (internal/precompute): a cached file that fails any check here is
// treated as corrupt and rebuilt from source.
func FromCSR(name string, n int, off, adj []int32) (*Graph, error) {
	if n < 0 {
		return nil, fmt.Errorf("graph: FromCSR: negative node count %d", n)
	}
	if len(off) != n+1 {
		return nil, fmt.Errorf("graph: FromCSR: len(off) = %d, want n+1 = %d", len(off), n+1)
	}
	if off[0] != 0 {
		return nil, fmt.Errorf("graph: FromCSR: off[0] = %d, want 0", off[0])
	}
	for v := 0; v < n; v++ {
		if off[v+1] < off[v] {
			return nil, fmt.Errorf("graph: FromCSR: off not monotone at %d (%d > %d)", v, off[v], off[v+1])
		}
	}
	if int(off[n]) != len(adj) {
		return nil, fmt.Errorf("graph: FromCSR: off[n] = %d, want len(adj) = %d", off[n], len(adj))
	}
	if len(adj)%2 != 0 {
		return nil, fmt.Errorf("graph: FromCSR: odd directed-edge count %d", len(adj))
	}
	g := &Graph{name: name, off: off, adj: adj}
	for v := 0; v < n; v++ {
		nb := adj[off[v]:off[v+1]]
		for i, w := range nb {
			if w < 0 || int(w) >= n {
				return nil, fmt.Errorf("graph: FromCSR: neighbor %d of node %d out of range", w, v)
			}
			if int(w) == v {
				return nil, fmt.Errorf("graph: FromCSR: self-loop at node %d", v)
			}
			if i > 0 && nb[i-1] >= w {
				return nil, fmt.Errorf("graph: FromCSR: neighbor list of node %d not strictly ascending", v)
			}
		}
		// Symmetry: every directed entry v->w must have its reverse w->v.
		// Both directions are checked — a backward-only stray entry (w < v
		// with no matching forward edge) would otherwise slip through.
		for _, w := range nb {
			if !hasSorted(adj[off[w]:off[w+1]], int32(v)) {
				return nil, fmt.Errorf("graph: FromCSR: edge (%d,%d) missing its reverse", v, w)
			}
		}
	}
	return g, nil
}

func hasSorted(nb []int32, v int32) bool {
	i := sort.Search(len(nb), func(i int) bool { return nb[i] >= v })
	return i < len(nb) && nb[i] == v
}

// CSR exposes the graph's raw offset and adjacency arrays for serialization
// (the precompute disk cache). The returned slices alias internal storage
// and must not be modified.
func (g *Graph) CSR() (off, adj []int32) { return g.off, g.adj }
