package cluster

import (
	"math"

	"radionet/internal/decay"
	"radionet/internal/graph"
	"radionet/internal/protocol"
	"radionet/internal/radio"
	"radionet/internal/rng"
)

// KindCluster tags distributed-partition wave messages.
const KindCluster radio.Kind = 2

// echoPhases is how many expansion phases a newly joined node keeps
// announcing its cluster; a second echo papers over an unlucky Decay
// phase at the cost of extra contention.
const echoPhases = 2

// distNode is the per-node state of the distributed protocol.
type distNode struct {
	rnd       rng.Rand // embedded: nodes live in one contiguous slice
	wakePhase int64

	center      int32
	dist        int32
	parent      int32
	joinedPhase int64
}

func (nd *distNode) assigned() bool { return nd.center >= 0 }

// Distributed is a running distributed Partition(β) instance: a
// radio.Protocol over the per-node states, one slice indexed by node id.
type Distributed struct {
	Engine *radio.Engine
	// MaxPhases bounds the number of expansion phases needed: every node
	// is assigned by its wake phase, so MaxPhases*PhaseLen rounds always
	// suffice.
	MaxPhases int64
	PhaseLen  int64

	g      *graph.Graph
	beta   float64
	levels int // Decay phase length
	nodes  []distNode
	delta  []float64
	prog   radio.Progress // assigned-node counter
}

// NewDistributed builds the distributed Partition(β) protocol on g for
// beta > 0. Every unit-distance expansion phase runs L = Levels(n) Decay
// phases of L rounds each, which makes per-neighbor delivery succeed whp
// within a phase and yields the O(log³n/β) total of Lemma 2.1. Shifts
// are drawn from seed; they are quantized to integers and capped at
// ~2·ln(n)/β (an event of probability n^-2 per node), which bounds the
// protocol's running time without affecting the clustering guarantees.
func NewDistributed(g *graph.Graph, beta float64, seed uint64) *Distributed {
	if beta <= 0 {
		panic("cluster: NewDistributed requires beta > 0")
	}
	n := g.N()
	levels := decay.Levels(n)
	phaseLen := int64(levels * levels)
	cap64 := int64(math.Ceil(2*math.Log(float64(n)+2)/beta)) + 1
	master := rng.New(seed)
	dist := &Distributed{
		MaxPhases: cap64 + 2,
		PhaseLen:  phaseLen,
		g:         g,
		beta:      beta,
		levels:    levels,
		nodes:     make([]distNode, n),
		delta:     make([]float64, n),
	}
	dist.prog = *radio.NewProgress(int64(n))
	for v := range dist.nodes {
		r := master.Fork(uint64(v))
		dv := int64(math.Floor(r.Exp(beta)))
		if dv > cap64 {
			dv = cap64
		}
		dist.delta[v] = float64(dv)
		dist.nodes[v] = distNode{
			rnd:       *r.Fork(1),
			wakePhase: cap64 - dv,
			center:    -1,
			parent:    -1,
		}
	}
	dist.Engine = radio.NewEngine(g, dist)
	return dist
}

// ActBulk implements radio.Protocol: the round's phase and Decay step
// once, then one pass over the nodes in ascending id order. A node whose
// wake phase has come and that no wave reached becomes a center; a node
// announces its cluster with Decay coins during the echoPhases phases
// after it joined.
//
//radionet:hotpath
func (d *Distributed) ActBulk(t int64, tx []int32, msgs []radio.Message) ([]int32, []radio.Message) {
	phase := t / d.PhaseLen
	p := decay.Prob(int(t % int64(d.levels)))
	for i := range d.nodes {
		nd := &d.nodes[i]
		if !nd.assigned() {
			if phase < nd.wakePhase {
				continue
			}
			// Own candidacy: become a center. (If a wave had reached this
			// node in an earlier phase it would already be assigned.)
			nd.center, nd.dist, nd.parent, nd.joinedPhase = int32(i), 0, -1, phase
			d.prog.Add(1)
		}
		if phase > nd.joinedPhase && phase <= nd.joinedPhase+echoPhases && nd.rnd.Bernoulli(p) {
			tx = append(tx, int32(i))
			msgs = append(msgs, radio.Message{Kind: KindCluster, A: int64(nd.center), B: int64(nd.dist)})
		}
	}
	return tx, msgs
}

// RecvBulk implements radio.Protocol: an unassigned listener joins the
// cluster of the wave it heard, one hop further from the center.
//
//radionet:hotpath
func (d *Distributed) RecvBulk(t int64, listeners, msgIdx []int32, msgs []radio.Message) {
	phase := t / d.PhaseLen
	for k, v := range listeners {
		nd := &d.nodes[v]
		msg := &msgs[msgIdx[k]]
		if msg.Kind != KindCluster || nd.assigned() {
			continue
		}
		nd.center, nd.dist, nd.parent, nd.joinedPhase = int32(msg.A), int32(msg.B)+1, msg.Src, phase
		d.prog.Add(1) // guarded by !assigned above: counted exactly once
	}
}

// DefaultBudget implements protocol.Budgeted: MaxPhases·PhaseLen, the
// phase bound.
func (d *Distributed) DefaultBudget() int64 { return d.MaxPhases * d.PhaseLen }

// Run executes the protocol until every node is assigned or budget
// rounds elapse; budget <= 0, or one above the phase bound, selects
// DefaultBudget.
func (d *Distributed) Run(budget int64) protocol.Result {
	if def := d.DefaultBudget(); budget <= 0 || budget > def {
		budget = def
	}
	rounds, done := d.Engine.RunUntil(budget, &d.prog)
	return protocol.Result{
		Rounds:      rounds,
		Tx:          d.Engine.Metrics.Transmissions,
		Done:        done,
		Reached:     int(d.prog.Count()),
		ReachTarget: int(d.prog.Target()),
	}
}

// Result converts the protocol outcome into a Result. Call after Run.
func (d *Distributed) Result() *Result {
	n := d.g.N()
	res := &Result{
		Beta:   d.beta,
		Center: make([]int32, n),
		Parent: make([]int32, n),
		Dist:   make([]int32, n),
		Delta:  d.delta,
		g:      d.g,
	}
	for v, nd := range d.nodes {
		res.Center[v] = nd.center
		res.Parent[v] = nd.parent
		res.Dist[v] = nd.dist
	}
	return res
}

var (
	_ radio.Protocol    = (*Distributed)(nil)
	_ protocol.Budgeted = (*Distributed)(nil)
)
