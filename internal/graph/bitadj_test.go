package graph

import (
	"testing"

	"radionet/internal/rng"
)

// TestAdjBitsRowsMatchNeighbors checks the dense layer against the CSR
// ground truth: exactly the nodes at or above the threshold get rows, and
// each row's set bits are exactly the node's neighbor list.
func TestAdjBitsRowsMatchNeighbors(t *testing.T) {
	graphs := []*Graph{
		Star(100), // hub degree 99, leaves degree 1
		Gnp(300, 0.1, rng.New(4)),
		Grid(9, 11),
		Path(70),
	}
	for _, g := range graphs {
		const threshold = 8
		a := NewAdjBits(g, threshold)
		rows := 0
		for v := 0; v < g.N(); v++ {
			row := a.Row(v)
			if g.Degree(v) >= threshold {
				rows++
				if row == nil {
					t.Fatalf("%s: node %d (deg %d) has no dense row", g, v, g.Degree(v))
				}
				if got := a.popCount(row); got != g.Degree(v) {
					t.Fatalf("%s: node %d row popcount %d != degree %d", g, v, got, g.Degree(v))
				}
				for _, u := range g.Neighbors(v) {
					if row[u>>6]&(1<<(uint(u)&63)) == 0 {
						t.Fatalf("%s: node %d row missing neighbor %d", g, v, u)
					}
				}
			} else if row != nil {
				t.Fatalf("%s: node %d (deg %d) below threshold %d has a dense row", g, v, g.Degree(v), threshold)
			}
		}
		if a.Rows() != rows {
			t.Fatalf("%s: Rows() = %d, counted %d", g, a.Rows(), rows)
		}
		if want := (g.N() + 63) / 64; a.words != want {
			t.Fatalf("%s: words = %d, want %d", g, a.words, want)
		}
	}
}

// TestAdjBitsDefaultThreshold pins the crossover policy: <= 0 selects
// DenseThreshold(n), which floors at 64 and grows as n/64.
func TestAdjBitsDefaultThreshold(t *testing.T) {
	if got := DenseThreshold(100); got != 64 {
		t.Fatalf("DenseThreshold(100) = %d, want the 64 floor", got)
	}
	if got := DenseThreshold(1 << 20); got != 1<<20/64 {
		t.Fatalf("DenseThreshold(1<<20) = %d, want %d", got, 1<<20/64)
	}
	g := Path(50) // max degree 2: no rows at the default threshold
	a := NewAdjBits(g, 0)
	if a.Rows() != 0 {
		t.Fatalf("rows %d at the default threshold, want 0", a.Rows())
	}
	for v := 0; v < g.N(); v++ {
		if a.Row(v) != nil {
			t.Fatalf("node %d has a row on an all-sparse graph", v)
		}
	}
}

// TestDenseAdjCachedAndNilSafe: DenseAdj builds once and returns the same
// layer to every caller; a nil layer answers Row with nil.
func TestDenseAdjCachedAndNilSafe(t *testing.T) {
	g := Star(200)
	a, b := g.DenseAdj(), g.DenseAdj()
	if a != b {
		t.Fatal("DenseAdj not cached")
	}
	if a.Row(0) == nil { // the hub clears any threshold floor of 64 at n=200
		t.Fatal("star hub has no dense row")
	}
	var nilAdj *AdjBits
	if nilAdj.Row(0) != nil {
		t.Fatal("nil AdjBits returned a row")
	}
}
