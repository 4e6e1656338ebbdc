package ghle

import (
	"testing"

	"radionet/internal/baseline"
	"radionet/internal/graph"
)

func TestElectsTrueMaxAndVerifies(t *testing.T) {
	g := graph.Grid(8, 8)
	d := g.DiameterEstimate()
	for seed := uint64(1); seed <= 5; seed++ {
		le, err := New(g, d, seed)
		if err != nil {
			t.Fatal(err)
		}
		res := le.Run(0)
		if !res.Done {
			t.Fatalf("seed %d: not done after %d rounds", seed, res.Rounds)
		}
		wantNode, wantID := le.Winner()
		if le.Leader() != wantNode || le.LeaderID() != wantID {
			t.Fatalf("seed %d: elected (%d, %d), want (%d, %d)", seed, le.Leader(), le.LeaderID(), wantNode, wantID)
		}
		if err := le.Verify(); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if res.Reached != res.ReachTarget || res.ReachTarget != g.N() {
			t.Fatalf("seed %d: reach %d/%d", seed, res.Reached, res.ReachTarget)
		}
		if res.Tx <= 0 {
			t.Fatalf("seed %d: no transmissions recorded", seed)
		}
	}
}

func TestDeterministicRuns(t *testing.T) {
	g := graph.PathOfCliques(8, 4)
	d := g.DiameterEstimate()
	run := func() (int64, int64, int, int64) {
		le, err := New(g, d, 42)
		if err != nil {
			t.Fatal(err)
		}
		res := le.Run(0)
		if !res.Done {
			t.Fatal("not done")
		}
		return res.Rounds, res.Tx, le.Leader(), le.LeaderID()
	}
	r1, tx1, l1, id1 := run()
	r2, tx2, l2, id2 := run()
	if r1 != r2 || tx1 != tx2 || l1 != l2 || id1 != id2 {
		t.Fatalf("same seed, different runs: (%d,%d,%d,%d) vs (%d,%d,%d,%d)", r1, tx1, l1, id1, r2, tx2, l2, id2)
	}
}

func TestBudgetCapAndSplit(t *testing.T) {
	g := graph.Grid(6, 6)
	d := g.DiameterEstimate()
	const budget = 100
	le, err := New(g, d, 7)
	if err != nil {
		t.Fatal(err)
	}
	if rounds := le.Run(budget).Rounds; rounds > budget {
		t.Fatalf("ran %d rounds over the %d budget", rounds, budget)
	}
	// Default budgets stay under the documented 2T bound.
	le2, err := New(g, d, 7)
	if err != nil {
		t.Fatal(err)
	}
	res := le2.Run(0)
	if !res.Done {
		t.Fatal("default budget did not complete")
	}
	if max := 2 * agreementBudget(g.N(), d); res.Rounds > max {
		t.Fatalf("default run used %d rounds, bound is %d", res.Rounds, max)
	}
}

// TestBeatsBinarySearch pins the comparative claim that motivates the
// algorithm: the knockout tournament elects in a small multiple of one
// broadcast budget, while the binary-search reduction pays a full budget
// per ID bit. A 5x margin leaves plenty of room for constants.
func TestBeatsBinarySearch(t *testing.T) {
	g := graph.Grid(8, 16)
	d := g.DiameterEstimate()
	le, err := New(g, d, 3)
	if err != nil {
		t.Fatal(err)
	}
	gh := le.Run(0)
	if !gh.Done {
		t.Fatal("gh13 did not complete")
	}
	bs, err := baseline.NewBinarySearchLE(g, d, 3)
	if err != nil {
		t.Fatal(err)
	}
	bsRes := bs.Run(0)
	if !bsRes.Done {
		t.Fatal("binary search did not complete")
	}
	if gh.Rounds*5 > bsRes.Rounds {
		t.Fatalf("gh13 %d rounds vs binary-search %d: expected >5x gap", gh.Rounds, bsRes.Rounds)
	}
}

// TestWinnerNeverEliminated is the tournament's core invariant: whatever
// the phase budgets resolve, the maximum-ID candidate survives every
// elimination phase (it can never hear a higher ID).
func TestWinnerNeverEliminated(t *testing.T) {
	g := graph.Caterpillar(16, 3)
	d := g.DiameterEstimate()
	for seed := uint64(10); seed < 20; seed++ {
		le, err := New(g, d, seed)
		if err != nil {
			t.Fatal(err)
		}
		le.Run(0)
		w, _ := le.Winner()
		if _, ok := le.survivors[w]; !ok {
			t.Fatalf("seed %d: winner eliminated", seed)
		}
	}
}
