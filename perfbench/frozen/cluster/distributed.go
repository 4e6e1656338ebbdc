package cluster

import (
	"math"

	"radionet/perfbench/frozen/decay"
	"radionet/perfbench/frozen/graph"
	"radionet/perfbench/frozen/radio"
	"radionet/perfbench/frozen/rng"
)

// KindCluster tags distributed-partition wave messages.
const KindCluster radio.Kind = 2

// DistConfig parameterizes the distributed Partition(β) protocol.
type DistConfig struct {
	// Beta is the clustering parameter (required, > 0).
	Beta float64
	// Repeat is the number of Decay phases run per unit-distance expansion
	// phase; each Decay phase is Levels(n) rounds. Zero means Levels(n),
	// which makes per-neighbor delivery succeed whp within a phase and
	// yields the O(log³n/β) total of Lemma 2.1.
	Repeat int
	// EchoPhases is how many expansion phases a newly joined node keeps
	// announcing its cluster (>= 1). More echoes paper over unlucky Decay
	// phases at the cost of extra contention. Zero means 2.
	EchoPhases int
}

func (c DistConfig) repeat(n int) int {
	if c.Repeat > 0 {
		return c.Repeat
	}
	return decay.Levels(n)
}

func (c DistConfig) echo() int {
	if c.EchoPhases > 0 {
		return c.EchoPhases
	}
	return 2
}

// distNode is the per-node state of the distributed protocol.
type distNode struct {
	id        int32
	levels    int // decay phase length
	phaseLen  int64
	wakePhase int64
	echo      int64
	rnd       *rng.Rand
	prog      *radio.Progress // assigned-node counter (shared)

	center      int32
	dist        int32
	parent      int32
	joinedPhase int64
}

func (d *distNode) assigned() bool { return d.center >= 0 }

// IgnoresSilence implements radio.SilenceOblivious: Recv without a
// message is always a no-op. (distNode is not a radio.Sleeper: unassigned
// nodes wake on a time trigger, not a reception.)
func (d *distNode) IgnoresSilence() bool { return true }

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
	if phase > d.joinedPhase && phase <= d.joinedPhase+d.echo {
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

func (d *distNode) Recv(t int64, msg *radio.Message, _ bool) {
	if msg == nil || msg.Kind != KindCluster || d.assigned() {
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

// NewDistributed builds the distributed Partition(β) protocol on g. Shifts
// are drawn from seed; they are quantized to integers and capped at
// ~2·ln(n)/β (an event of probability n^-2 per node), which bounds the
// protocol's running time without affecting the clustering guarantees.
func NewDistributed(g *graph.Graph, cfg DistConfig, seed uint64) *Distributed {
	if cfg.Beta <= 0 {
		panic("cluster: NewDistributed requires Beta > 0")
	}
	n := g.N()
	levels := decay.Levels(n)
	phaseLen := int64(cfg.repeat(n) * levels)
	cap64 := int64(math.Ceil(2*math.Log(float64(n)+2)/cfg.Beta)) + 1
	master := rng.New(seed)
	dist := &Distributed{
		MaxPhases: cap64 + 2,
		PhaseLen:  phaseLen,
		g:         g,
		beta:      cfg.Beta,
		nodes:     make([]*distNode, n),
		delta:     make([]float64, n),
	}
	dist.prog = *radio.NewProgress(int64(n))
	rn := make([]radio.Node, n)
	for v := 0; v < n; v++ {
		r := master.Fork(uint64(v))
		dv := int64(math.Floor(r.Exp(cfg.Beta)))
		if dv > cap64 {
			dv = cap64
		}
		dist.delta[v] = float64(dv)
		dist.nodes[v] = &distNode{
			id:        int32(v),
			levels:    levels,
			phaseLen:  phaseLen,
			wakePhase: cap64 - dv,
			echo:      int64(cfg.echo()),
			rnd:       r.Fork(1),
			prog:      &dist.prog,
			center:    -1,
			parent:    -1,
		}
		rn[v] = dist.nodes[v]
	}
	dist.Engine = radio.NewEngine(g, rn)
	return dist
}

// Done reports whether every node has been assigned to a cluster. O(1):
// nodes report their assignment (wave adoption or self-candidacy) to the
// shared radio.Progress as it happens.
func (d *Distributed) Done() bool { return d.prog.Done() }

// doneFullScan is the O(n) reference implementation of Done, kept for the
// equivalence tests.
func (d *Distributed) doneFullScan() bool {
	for _, nd := range d.nodes {
		if !nd.assigned() {
			return false
		}
	}
	return true
}

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
