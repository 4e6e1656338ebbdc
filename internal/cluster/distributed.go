package cluster

import (
	"math"

	"radionet/internal/decay"
	"radionet/internal/graph"
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
	id        int32
	levels    int // decay phase length
	phaseLen  int64
	wakePhase int64
	rnd       *rng.Rand
	prog      *radio.Progress // assigned-node counter (shared)

	center      int32
	dist        int32
	parent      int32
	joinedPhase int64
}

func (d *distNode) assigned() bool { return d.center >= 0 }

func (d *distNode) Act(t int64) radio.Action {
	phase := t / d.phaseLen
	if !d.assigned() && phase >= d.wakePhase {
		// Own candidacy: become a center. (If a wave had reached this node
		// in an earlier phase it would already be assigned.)
		d.center = d.id
		d.dist = 0
		d.parent = -1
		d.joinedPhase = phase
		d.prog.Add(1)
	}
	if !d.assigned() {
		return radio.Listen
	}
	// Announce during the echo window after joining.
	if phase > d.joinedPhase && phase <= d.joinedPhase+echoPhases {
		step := int(t % int64(d.levels))
		if d.rnd.Bernoulli(decay.Prob(step)) {
			return radio.Transmit(radio.Message{
				Kind: KindCluster,
				A:    int64(d.center),
				B:    int64(d.dist),
			})
		}
	}
	return radio.Listen
}

func (d *distNode) Recv(t int64, msg *radio.Message) {
	if msg.Kind != KindCluster || d.assigned() {
		return
	}
	phase := t / d.phaseLen
	d.center = int32(msg.A)
	d.dist = int32(msg.B) + 1
	d.parent = msg.Src
	d.joinedPhase = phase
	d.prog.Add(1) // guarded by !assigned above: counted exactly once
}

// Distributed is a running distributed Partition(β) instance.
type Distributed struct {
	Engine *radio.Engine
	// MaxPhases bounds the number of expansion phases needed: every node
	// is assigned by its wake phase, so MaxPhases*PhaseLen rounds always
	// suffice.
	MaxPhases int64
	PhaseLen  int64

	g     *graph.Graph
	beta  float64
	nodes []*distNode
	delta []float64
	prog  radio.Progress // assigned-node counter shared with the nodes
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
		nodes:     make([]*distNode, n),
		delta:     make([]float64, n),
	}
	dist.prog = *radio.NewProgress(int64(n))
	rn := make([]radio.Node, n)
	for v := 0; v < n; v++ {
		r := master.Fork(uint64(v))
		dv := int64(math.Floor(r.Exp(beta)))
		if dv > cap64 {
			dv = cap64
		}
		dist.delta[v] = float64(dv)
		dist.nodes[v] = &distNode{
			id:        int32(v),
			levels:    levels,
			phaseLen:  phaseLen,
			wakePhase: cap64 - dv,
			rnd:       r.Fork(1),
			prog:      &dist.prog,
			center:    -1,
			parent:    -1,
		}
		rn[v] = dist.nodes[v]
	}
	dist.Engine = radio.NewNodeEngine(g, rn)
	return dist
}

// Done reports whether every node has been assigned to a cluster. O(1):
// nodes report their assignment (wave adoption or self-candidacy) to the
// shared radio.Progress as it happens.
func (d *Distributed) Done() bool { return d.prog.Done() }

// Run executes the protocol to completion (or the phase bound) and returns
// the number of rounds used and whether all nodes were assigned.
func (d *Distributed) Run() (int64, bool) {
	budget := d.MaxPhases * d.PhaseLen
	return d.Engine.RunUntil(budget, &d.prog)
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
