package multicast

import (
	"testing"

	"radionet/internal/graph"
	"radionet/internal/rng"
)

// doneFullScan is the O(n) reference implementation of prog.Done, the oracle
// of the equivalence test below.
func (p *Pipelined) doneFullScan() bool {
	for i := range p.nodes {
		if nd := &p.nodes[i]; nd.count != len(nd.known) {
			return false
		}
	}
	return true
}

// Incremental Done (nodes report their k-th delivery to the shared
// radio.Progress) must agree with the O(n) reference scan after every
// round, on randomized graphs and seeds.
func TestDoneMatchesFullScanEveryRound(t *testing.T) {
	for seed := uint64(1); seed <= 3; seed++ {
		r := rng.New(seed)
		graphs := []*graph.Graph{
			graph.RandomTree(40, r.Fork(1)),
			graph.Gnp(60, 0.07, r.Fork(2)),
			graph.Grid(5, 8),
		}
		for _, g := range graphs {
			p, err := NewPipelined(g, g.DiameterEstimate(), seed, 0, []int64{3, 1, 4, 1, 5})
			if err != nil {
				t.Fatal(err)
			}
			for round := 0; round < 1<<14; round++ {
				inc, ref := p.prog.Done(), p.doneFullScan()
				if inc != ref {
					t.Fatalf("%s seed=%d round %d: incremental Done=%v, full scan=%v",
						g, seed, round, inc, ref)
				}
				if ref {
					break
				}
				p.Engine.Step()
			}
			if !p.doneFullScan() {
				t.Fatalf("%s seed=%d: pipelined multicast did not complete", g, seed)
			}
			for v := range p.nodes {
				if c := p.nodes[v].count; c != 5 {
					t.Fatalf("%s seed=%d: node %d knows %d/5 messages after Done", g, seed, v, c)
				}
			}
		}
	}
}
