package graph

import (
	"encoding/binary"
	"slices"
	"testing"

	"radionet/internal/rng"
)

// comparatorBuild is the reference CSR build: edges are normalized as
// AddEdge does (self-loops dropped, u < v), sorted as [2]int32 pairs with
// a comparison closure, deduplicated, and filled into off/adj. Builder's
// counting-sort build must produce the same arrays.
func comparatorBuild(n int, edges [][2]int32) (off, adj []int32) {
	var es [][2]int32
	for _, e := range edges {
		u, v := e[0], e[1]
		if u == v {
			continue
		}
		if u > v {
			u, v = v, u
		}
		es = append(es, [2]int32{u, v})
	}
	slices.SortFunc(es, func(x, y [2]int32) int {
		if x[0] != y[0] {
			return int(x[0]) - int(y[0])
		}
		return int(x[1]) - int(y[1])
	})
	uniq := es[:0]
	for i, e := range es {
		if i == 0 || e != es[i-1] {
			uniq = append(uniq, e)
		}
	}
	off = make([]int32, n+1)
	for _, e := range uniq {
		off[e[0]+1]++
		off[e[1]+1]++
	}
	for i := 0; i < n; i++ {
		off[i+1] += off[i]
	}
	adj = make([]int32, 2*len(uniq))
	for _, e := range uniq {
		adj[off[e[0]]] = e[1]
		off[e[0]]++
		adj[off[e[1]]] = e[0]
		off[e[1]]++
	}
	for v := n; v > 0; v-- {
		off[v] = off[v-1]
	}
	off[0] = 0
	for v := 0; v < n; v++ {
		slices.Sort(adj[off[v]:off[v+1]])
	}
	return off, adj
}

// TestBuildMatchesComparatorSort checks Builder against comparatorBuild
// on random edge lists with duplicates, both orientations of an edge and
// self-loops: off and adj must be equal.
func TestBuildMatchesComparatorSort(t *testing.T) {
	r := rng.New(77)
	for trial := 0; trial < 200; trial++ {
		n := 1 + r.Intn(300)
		m := r.Intn(4 * n)
		var edges [][2]int32
		b := NewBuilder("oracle", n)
		for i := 0; i < m; i++ {
			u, v := r.Intn(n), r.Intn(n)
			switch r.Intn(4) {
			case 0: // self-loop
				v = u
			case 1: // repeat an earlier edge, possibly reversed
				if len(edges) > 0 {
					e := edges[r.Intn(len(edges))]
					u, v = int(e[1]), int(e[0])
				}
			}
			edges = append(edges, [2]int32{int32(u), int32(v)})
			b.AddEdge(u, v)
		}
		g := b.Build()
		off, adj := comparatorBuild(n, edges)
		if !slices.Equal(g.off, off) || !slices.Equal(g.adj, adj) {
			t.Fatalf("trial %d (n=%d, %d edges): CSR differs from the comparator-sort build", trial, n, m)
		}
	}
}

// FuzzBuild decodes data into a node count n in [1, 4096] (the first two
// bytes, little-endian, mod 4096, plus one) and an edge list (each further
// four bytes, two little-endian endpoints mod n), then checks Builder
// against comparatorBuild.
func FuzzBuild(f *testing.F) {
	enc := func(n int, edges ...[2]uint16) []byte {
		data := binary.LittleEndian.AppendUint16(nil, uint16(n-1))
		for _, e := range edges {
			data = binary.LittleEndian.AppendUint16(data, e[0])
			data = binary.LittleEndian.AppendUint16(data, e[1])
		}
		return data
	}
	f.Add(enc(1))
	f.Add(enc(6, [2]uint16{5, 0}, [2]uint16{1, 5}, [2]uint16{5, 2}, [2]uint16{3, 5}, [2]uint16{5, 4}, [2]uint16{5, 5}))
	f.Add(enc(4096, [2]uint16{7, 4095}, [2]uint16{4095, 7}, [2]uint16{7, 4095}, [2]uint16{4095, 7}))
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 2 {
			return
		}
		n := 1 + int(binary.LittleEndian.Uint16(data)%4096)
		var edges [][2]int32
		b := NewBuilder("fuzz", n)
		for rest := data[2:]; len(rest) >= 4; rest = rest[4:] {
			u := int(binary.LittleEndian.Uint16(rest)) % n
			v := int(binary.LittleEndian.Uint16(rest[2:])) % n
			edges = append(edges, [2]int32{int32(u), int32(v)})
			b.AddEdge(u, v)
		}
		g := b.Build()
		off, adj := comparatorBuild(n, edges)
		if !slices.Equal(g.off, off) || !slices.Equal(g.adj, adj) {
			t.Fatalf("n=%d, %d edges: CSR differs from the comparator-sort build", n, len(edges))
		}
	})
}
