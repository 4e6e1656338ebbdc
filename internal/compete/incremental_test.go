package compete

import (
	"testing"

	"radionet/internal/graph"
	"radionet/internal/rng"
)

// doneFullScan is the O(n) reference implementation of Done, the oracle
// of the equivalence tests.
func (c *Compete) doneFullScan() bool {
	for _, val := range c.globalMax {
		if val != c.trueMax {
			return false
		}
	}
	return true
}

// Incremental Done (globalMax threshold crossings counted in Recv) must
// agree with the O(n) reference scan after every round, for single- and
// multi-source instances on randomized graphs and seeds.
func TestDoneMatchesFullScanEveryRound(t *testing.T) {
	for seed := uint64(1); seed <= 2; seed++ {
		r := rng.New(seed)
		graphs := []*graph.Graph{
			graph.RandomTree(36, r.Fork(1)),
			graph.Grid(5, 7),
		}
		for gi, g := range graphs {
			d := g.DiameterEstimate()
			sources := map[int]int64{0: 9}
			if gi%2 == 1 {
				sources = map[int]int64{0: 5, g.N() - 1: 9}
			}
			c, err := New(NewPre(g, d, Config{}), seed, sources)
			if err != nil {
				t.Fatal(err)
			}
			budget := 8 * c.Budget()
			for round := int64(0); round <= budget; round++ {
				inc, ref := c.Done(), c.doneFullScan()
				if inc != ref {
					t.Fatalf("%s seed=%d round %d: incremental Done=%v, full scan=%v",
						g, seed, round, inc, ref)
				}
				if inc {
					if got, want := c.Reached(), g.N(); got != want {
						t.Fatalf("%s seed=%d: Reached=%d at completion, want %d", g, seed, got, want)
					}
					break
				}
				c.Engine.Step()
			}
			if !c.doneFullScan() {
				t.Fatalf("%s seed=%d: compete did not complete within budget", g, seed)
			}
		}
	}
}

// Reached must match a scan of Values at sampled rounds.
func TestReachedMatchesScan(t *testing.T) {
	g := graph.Grid(4, 8)
	c, err := New(NewPre(g, g.DiameterEstimate(), Config{}), 3, map[int]int64{0: 7})
	if err != nil {
		t.Fatal(err)
	}
	budget := 8 * c.Budget()
	for round := int64(0); round <= budget && !c.Done(); round++ {
		if round%64 == 0 {
			want := 0
			for _, v := range c.Values() {
				if v == c.TrueMax() {
					want++
				}
			}
			if got := c.Reached(); got != want {
				t.Fatalf("round %d: Reached=%d, scan=%d", round, got, want)
			}
		}
		c.Engine.Step()
	}
	if !c.Done() {
		t.Fatal("compete did not complete")
	}
}
