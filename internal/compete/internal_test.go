package compete

import (
	"math"
	"testing"

	"radionet/internal/graph"
)

// TestMainFidSharedWithinCoarseCluster verifies step 5–6 of Algorithm 1:
// every member of a coarse cluster follows the same clustering sequence
// (the sequence is generated by the coarse center and shared).
func TestMainFidSharedWithinCoarseCluster(t *testing.T) {
	g := graph.Grid(10, 10)
	c, err := New(NewPre(g, g.Diameter(), Config{}), 3, map[int]int64{0: 1})
	if err != nil {
		t.Fatal(err)
	}
	for k := int64(0); k < 20; k++ {
		for v := 0; v < g.N(); v++ {
			for _, w := range g.Neighbors(v) {
				if c.coarse.Center[v] == c.coarse.Center[w] {
					if c.mainFid(int32(v), k) != c.mainFid(w, k) {
						t.Fatalf("slot %d: same coarse cluster, different fid (%d vs %d)",
							k, c.mainFid(int32(v), k), c.mainFid(w, k))
					}
				}
			}
		}
	}
}

// TestMainFidRoughlyUniform checks the random sequence covers all fine
// clusterings without heavy bias.
func TestMainFidRoughlyUniform(t *testing.T) {
	g := graph.Path(100)
	c, err := New(NewPre(g, 99, Config{}), 5, map[int]int64{0: 1})
	if err != nil {
		t.Fatal(err)
	}
	counts := make(map[int32]int)
	const slots = 4000
	for k := int64(0); k < slots; k++ {
		counts[c.mainFid(0, k)]++
	}
	if len(counts) != len(c.mains) {
		t.Fatalf("sequence used %d of %d clusterings", len(counts), len(c.mains))
	}
	want := float64(slots) / float64(len(c.mains))
	for fid, got := range counts {
		if math.Abs(float64(got)-want) > 0.3*want {
			t.Fatalf("fid %d drawn %d times, want ~%.0f", fid, got, want)
		}
	}
}

// TestBgFidRoundRobin verifies Algorithm 2's round-robin clustering order
// over the bgNumFine background clusterings.
func TestBgFidRoundRobin(t *testing.T) {
	g := graph.Path(60)
	c, err := New(NewPre(g, 59, Config{}), 7, map[int]int64{0: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(c.bgs) != 3 {
		t.Fatalf("%d background clusterings, want 3", len(c.bgs))
	}
	for k := int64(0); k < 12; k++ {
		if got := c.bgFid(k); got != int32(k%3) {
			t.Fatalf("bgFid(%d) = %d, want %d", k, got, k%3)
		}
	}
}

// TestCurtailmentOrdering verifies the HW16 mode lengthens every slot by
// the log log n factor and that curtailment distances grow with j.
func TestCurtailmentOrdering(t *testing.T) {
	g := graph.Path(200)
	d := 199
	base, err := New(NewPre(g, d, Config{}), 11, map[int]int64{0: 1})
	if err != nil {
		t.Fatal(err)
	}
	hw, err := New(NewPre(g, d, Config{CurtailLogLog: true}), 11, map[int]int64{0: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(base.mains) != len(hw.mains) {
		t.Fatal("mode changed the clustering count")
	}
	for i := range base.mains {
		if hw.mains[i].curtail < base.mains[i].curtail {
			t.Fatalf("fine %d: HW16 curtail %d < CD17 curtail %d",
				i, hw.mains[i].curtail, base.mains[i].curtail)
		}
	}
	// Curtailment must be nondecreasing in j (it scales with 2^j).
	for i := 1; i < len(base.mains); i++ {
		if base.mains[i].j > base.mains[i-1].j && base.mains[i].curtail < base.mains[i-1].curtail {
			t.Fatalf("curtail not monotone in j: j=%d has %d, j=%d has %d",
				base.mains[i-1].j, base.mains[i-1].curtail, base.mains[i].j, base.mains[i].curtail)
		}
	}
}

// TestSlotGeometry checks the ICP slot structure: three equal sub-phases,
// durations scaled by the schedule ladder.
func TestSlotGeometry(t *testing.T) {
	g := graph.PathOfCliques(10, 6)
	c, err := New(NewPre(g, g.Diameter(), Config{}), 13, map[int]int64{0: 1})
	if err != nil {
		t.Fatal(err)
	}
	for i, f := range c.mains {
		if f.slotLen != 3*f.subLen {
			t.Fatalf("fine %d: slotLen %d != 3*subLen %d", i, f.slotLen, f.subLen)
		}
		if f.subLen < 4 {
			t.Fatalf("fine %d: subLen %d too small", i, f.subLen)
		}
		if f.curtail < 2 {
			t.Fatalf("fine %d: curtail %d", i, f.curtail)
		}
	}
	for i, f := range c.bgs {
		if f.slotLen != 3*f.subLen {
			t.Fatalf("bg %d: bad slot geometry", i)
		}
	}
}

// TestPrecomputeChargeGrowsWithScale sanity-checks the charged oracle
// costs against the paper's formulas.
func TestPrecomputeChargeGrowsWithScale(t *testing.T) {
	small, _ := New(NewPre(graph.Path(64), 63, Config{}), 1, map[int]int64{0: 1})
	big, _ := New(NewPre(graph.Path(512), 511, Config{}), 1, map[int]int64{0: 1})
	if big.PrecomputeRounds <= small.PrecomputeRounds {
		t.Fatalf("precompute charge not growing: %d vs %d",
			small.PrecomputeRounds, big.PrecomputeRounds)
	}
}

// TestUninformedFloodIsHarmless: before any message reaches a cluster,
// its center floods the Uninformed sentinel; nodes must not adopt it as
// knowledge.
func TestUninformedFloodIsHarmless(t *testing.T) {
	g := graph.Path(60)
	c, err := New(NewPre(g, 59, Config{}), 17, map[int]int64{59: 5})
	if err != nil {
		t.Fatal(err)
	}
	// Run a while; nodes far from the source should still be uninformed
	// or hold exactly the real value, never garbage.
	for i := 0; i < 2000; i++ {
		c.Engine.Step()
	}
	for v, val := range c.Values() {
		if val != Uninformed && val != 5 {
			t.Fatalf("node %d holds fabricated value %d", v, val)
		}
	}
}
