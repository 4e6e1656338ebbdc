package baseline

import (
	"testing"

	"radionet/internal/graph"
	"radionet/internal/rng"
)

// The baseline broadcasts ride on decay.Broadcast, whose completion is the
// O(1) incremental tracker behind Reached and ReachTarget. Cross-check it
// against the exported state (Values) round by round at this layer too:
// Reached must meet ReachTarget exactly when every node's value equals the
// propagated maximum.
func TestTruncatedDecayDoneMatchesValues(t *testing.T) {
	for seed := uint64(1); seed <= 3; seed++ {
		g := graph.RandomTree(50, rng.New(seed))
		d := 12
		bc := truncatedDecay(g, d, seed, map[int]int64{0: 4, g.N() / 2: 9})
		scanDone := func() bool {
			for _, v := range bc.Values() {
				if v != 9 {
					return false
				}
			}
			return true
		}
		done := func() bool { return bc.Reached() >= bc.ReachTarget() }
		for round := 0; round < 1<<14; round++ {
			if done() != scanDone() {
				t.Fatalf("seed=%d round %d: Done=%v, value scan=%v", seed, round, done(), scanDone())
			}
			if done() {
				break
			}
			bc.Engine.Step()
		}
		if !done() {
			t.Fatalf("seed=%d: truncated decay did not complete", seed)
		}
	}
}
