package graph

import (
	"testing"

	"radionet/internal/rng"
)

// TestBandsRebuildEdges checks the band layer against the CSR it is
// derived from: on paths, cycles, grids and the hypercubes of up to
// MaxBands dimensions every edge {u, v}, u < v, is bit u of exactly one
// band, the band of difference v-u, and every band bit is an edge. The padding words and the bits past n stay
// zero, and the differences are ascending and within MaxBands.
func TestBandsRebuildEdges(t *testing.T) {
	graphs := []*Graph{
		Path(2), Path(64), Path(300),
		Cycle(3), Cycle(65), Cycle(200),
		Grid(1, 9), Grid(8, 8), Grid(7, 13), Grid(16, 128),
		Hypercube(1), Hypercube(2),
	}
	for _, g := range graphs {
		b := g.Bands()
		if b == nil {
			t.Fatalf("%s: no band layer", g)
		}
		if b.Len() > MaxBands {
			t.Fatalf("%s: %d bands, want at most %d", g, b.Len(), MaxBands)
		}
		n, words := g.N(), (g.N()+63)/64
		if want := b.Diff(b.Len()-1)>>6 + 1; b.Pad() != want {
			t.Fatalf("%s: pad %d, want %d", g, b.Pad(), want)
		}
		bit := func(i, u int) bool { return b.Padded(i)[b.Pad()+u>>6]&(1<<(uint(u)&63)) != 0 }
		bandBits := 0
		for i := range b.Len() {
			if i > 0 && b.Diff(i-1) >= b.Diff(i) {
				t.Fatalf("%s: differences not ascending: %d then %d", g, b.Diff(i-1), b.Diff(i))
			}
			row := b.Padded(i)
			if len(row) != words+2*b.Pad() {
				t.Fatalf("%s: band %d has %d words, want %d", g, i, len(row), words+2*b.Pad())
			}
			for w, x := range row {
				if (w < b.Pad() || w >= b.Pad()+words) && x != 0 {
					t.Fatalf("%s: band %d padding word %d is %#x", g, i, w, x)
				}
			}
			for u := 0; u < words*64; u++ {
				if !bit(i, u) {
					continue
				}
				bandBits++
				if v := u + b.Diff(i); u >= n || v >= n || !g.HasEdge(u, v) {
					t.Fatalf("%s: band %d (d=%d) sets bit %d, which is no edge", g, i, b.Diff(i), u)
				}
			}
		}
		g.Edges(func(u, v int) bool {
			hits := 0
			for i := range b.Len() {
				if b.Diff(i) == v-u && bit(i, u) {
					hits++
				}
			}
			if hits != 1 {
				t.Fatalf("%s: edge {%d, %d} in %d bands, want 1", g, u, v, hits)
			}
			return true
		})
		if bandBits != g.M() {
			t.Fatalf("%s: %d band bits, want %d edges", g, bandBits, g.M())
		}
	}
}

// TestBandsAbsent checks that graphs whose edges use more than MaxBands
// id differences have no band layer: geometric, gnp and random-tree
// graphs, graphs with dense rows, a hypercube past MaxBands dimensions,
// chained cliques of four or more nodes, and graphs without edges.
func TestBandsAbsent(t *testing.T) {
	dense := []*Graph{Gnp(4096, 0.05, rng.New(3)), Complete(100)}
	for _, g := range dense {
		if g.DenseAdj().Rows() == 0 {
			t.Fatalf("%s: no dense rows", g)
		}
	}
	graphs := append(dense,
		RandomGeometric(2000, 0.05, rng.New(1)),
		Gnp(300, 0.05, rng.New(2)),
		RandomTree(500, rng.New(4)),
		Star(100),
		Hypercube(MaxBands+1),
		PathOfCliques(24, 8),
		PathOfCliques(8, 4),
		Dumbbell(8, 200),
		Path(1),
		Grid(1, 1),
	)
	for _, g := range graphs {
		if b := g.Bands(); b != nil {
			t.Fatalf("%s: band layer with %d bands, want none", g, b.Len())
		}
	}
}
