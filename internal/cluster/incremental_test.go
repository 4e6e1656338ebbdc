package cluster

import (
	"testing"

	"radionet/internal/graph"
	"radionet/internal/rng"
)

// doneFullScan is the O(n) reference implementation of Done, the oracle
// of the equivalence test below.
func (d *Distributed) doneFullScan() bool {
	for _, nd := range d.nodes {
		if !nd.assigned() {
			return false
		}
	}
	return true
}

// Incremental Done (assignments reported to the shared radio.Progress from
// both the Recv wave-adoption and the Act self-candidacy transitions) must
// agree with the O(n) reference scan after every round.
func TestDistributedDoneMatchesFullScanEveryRound(t *testing.T) {
	for seed := uint64(1); seed <= 3; seed++ {
		r := rng.New(seed)
		graphs := []*graph.Graph{
			graph.RandomTree(40, r.Fork(1)),
			graph.Grid(6, 6),
			graph.PathOfCliques(5, 4),
		}
		for _, g := range graphs {
			d := NewDistributed(g, 0.3, seed)
			budget := d.MaxPhases * d.PhaseLen
			for round := int64(0); round <= budget; round++ {
				inc, ref := d.Done(), d.doneFullScan()
				if inc != ref {
					t.Fatalf("%s seed=%d round %d: incremental Done=%v, full scan=%v",
						g, seed, round, inc, ref)
				}
				if ref {
					break
				}
				d.Engine.Step()
			}
			if !d.doneFullScan() {
				t.Fatalf("%s seed=%d: partition did not complete within the phase bound", g, seed)
			}
			// The Result must be fully assigned, matching Done.
			for v, c := range d.Result().Center {
				if c < 0 {
					t.Fatalf("%s seed=%d: node %d unassigned after Done", g, seed, v)
				}
			}
		}
	}
}
