package exp

import (
	"radionet/internal/graph"
	"radionet/internal/protocol"
)

func init() {
	register("F7", "Energy: total transmissions per broadcast", runF7)
}

// runF7 compares the transmission (energy) cost of the algorithms — not a
// claim the paper optimizes for, but a first-class concern in the radio
// network literature and a consequence of its design: spontaneous
// transmissions mean nodes spend energy before being informed, so the
// paper's speed is bought with channel activity. The table quantifies the
// trade.
func runF7(o Options) *Table {
	t := &Table{
		ID:         "F7",
		Title:      Title("F7"),
		PaperClaim: "no explicit claim; quantifies the energy cost of spontaneous transmissions vs informed-only protocols",
		Columns:    []string{"graph", "n", "D", "algo", "rounds", "transmissions", "tx/node/round"},
	}
	seeds := o.seeds(3, 2)
	gs := []*graph.Graph{graph.Grid(16, 64), graph.PathOfCliques(32, 8)}
	if o.Quick {
		gs = []*graph.Graph{graph.Grid(8, 16)}
	}
	algos := []*protocol.Descriptor{broadcast("bgi"), broadcast("truncated-decay"), broadcast("cd17")}
	cells := cross(gs, (*graph.Graph).DiameterEstimate, algos)
	for k, rs := range o.runCells("F7", cells, seeds) {
		c := cells[k]
		rounds, tx, _ := meanOf(rs)
		perNodeRound := 0.0
		if rounds > 0 {
			perNodeRound = tx / (rounds * float64(c.G.N()))
		}
		t.AddRow(c.G.Name(), c.G.N(), c.D, algos[k%len(algos)].Label, rounds, tx, perNodeRound)
	}
	t.Note("BGI/CR-KP transmit only after being informed; CD17's clustering lanes keep a low duty cycle per node but spend energy network-wide from round 0")
	return t
}
