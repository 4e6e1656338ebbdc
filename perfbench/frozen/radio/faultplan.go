package radio

import (
	"fmt"
	"math"
	"slices"

	"radionet/perfbench/frozen/graph"
	"radionet/perfbench/frozen/rng"
)

// NoCrash is the CrashRound value of a node that never crashes.
const NoCrash = int64(math.MaxInt64)

// Stream-derivation tags for the plan's per-node fault coins. Wrap and the
// engine overlay derive the same streams from the same (seed, node) pair,
// which is what makes the two realizations of a plan observationally
// identical.
const (
	jamStreamTag  = 0x4a6d_0000_0000_0000
	lossStreamTag = 0x1055_0000_0000_0000
)

// FaultPlan is the engine-side fault overlay: a whole-network fault
// scenario — per-node crash rounds, a jammer set with per-round noise
// probability, and per-node reception-loss probability — that the engine
// applies inside Step as masks over the transmit list and the delivery
// pass. Unlike per-node fault wrappers (CrashNode et al.), the overlay
// composes with the BulkActor/BulkReceiver fast paths: the protocol
// computes its round obliviously and the engine masks dead transmitters,
// injects noise, and fades receptions afterwards, so faulted runs keep the
// bulk-path speed.
//
// Semantics, round by round (all rounds are global engine rounds):
//
//   - A node with crash round R is dead in every round t >= R: it never
//     transmits (bulk-computed transmissions are masked off the air), is
//     skipped by both listener passes, and stops counting toward
//     Metrics.Deliveries/Collisions. Its protocol machine may keep
//     drawing from its private randomness stream on the bulk path; the
//     draws are unobservable because nothing the node does reaches the
//     network.
//   - A live jammer draws one noise coin per round; when it fires, the
//     node transmits KindNoise this round regardless of what its protocol
//     chose (the protocol machine still stepped — see JamNode, which
//     mirrors this).
//   - A lossy node draws one fade coin per successful reception; a faded
//     reception still counts as an engine delivery (the message was on the
//     air) but never reaches the protocol. The overlay skips the Recv call
//     outright, which is equivalent to LossyNode's silence hand-off for
//     every protocol in this repository (all are silence-oblivious).
//
// A plan is single-use: its jam/loss coin streams advance as the run
// executes. Build one plan per engine (or per Wrap-based construction).
type FaultPlan struct {
	n    int
	base rng.Rand // fault-coin stream root, derived from the plan seed

	crashAt []int64 // nil, or per-node crash round (NoCrash = never)
	jamP    []float64
	lossP   []float64
	jamRnd  []rng.Rand
	lossRnd []rng.Rand

	jammers []int32 // ascending ids with jamP > 0
	crashes int
	hasLoss bool
}

// NewFaultPlan returns an empty plan for an n-node network. seed derives
// every fault coin (jam and loss streams); fault sites are chosen by the
// caller via Crash/Jam/Loss.
func NewFaultPlan(n int, seed uint64) *FaultPlan {
	return &FaultPlan{n: n, base: *rng.New(seed)}
}

// N returns the network size the plan was built for.
func (p *FaultPlan) N() int { return p.n }

func (p *FaultPlan) check(v int) {
	if v < 0 || v >= p.n {
		panic(fmt.Sprintf("radio: fault site %d out of range [0, %d)", v, p.n))
	}
}

// Crash schedules node v to die at the given global round (dead in every
// round >= round; values <= 0 mean dead from the start). Re-crashing a
// node keeps the earlier round.
func (p *FaultPlan) Crash(v int, round int64) {
	p.check(v)
	if round < 0 {
		round = 0
	}
	if p.crashAt == nil {
		p.crashAt = make([]int64, p.n)
		for i := range p.crashAt {
			p.crashAt[i] = NoCrash
		}
	}
	if p.crashAt[v] == NoCrash {
		p.crashes++
	}
	if round < p.crashAt[v] {
		p.crashAt[v] = round
	}
}

// Jam makes node v transmit noise with probability prob each round it is
// alive.
func (p *FaultPlan) Jam(v int, prob float64) {
	p.check(v)
	if prob <= 0 {
		return
	}
	if p.jamP == nil {
		p.jamP = make([]float64, p.n)
		p.jamRnd = make([]rng.Rand, p.n)
	}
	if p.jamP[v] == 0 {
		i, _ := slices.BinarySearch(p.jammers, int32(v))
		p.jammers = slices.Insert(p.jammers, i, int32(v))
		p.jamRnd[v] = *p.base.Fork(jamStreamTag | uint64(v))
	}
	p.jamP[v] = prob
}

// Loss makes node v drop each successful reception with probability prob.
func (p *FaultPlan) Loss(v int, prob float64) {
	p.check(v)
	if prob <= 0 {
		return
	}
	if p.lossP == nil {
		p.lossP = make([]float64, p.n)
		p.lossRnd = make([]rng.Rand, p.n)
	}
	if p.lossP[v] == 0 {
		p.lossRnd[v] = *p.base.Fork(lossStreamTag | uint64(v))
	}
	p.lossP[v] = prob
	p.hasLoss = true
}

// CrashRound returns the round node v dies at, or NoCrash.
func (p *FaultPlan) CrashRound(v int) int64 {
	if p.crashAt == nil {
		return NoCrash
	}
	return p.crashAt[v]
}

// Alive reports whether node v never crashes under the plan.
func (p *FaultPlan) Alive(v int) bool { return p.CrashRound(v) == NoCrash }

// Survivors returns the number of nodes that never crash.
func (p *FaultPlan) Survivors() int { return p.n - p.crashes }

// SurvivorMask returns the per-node never-crashes mask.
func (p *FaultPlan) SurvivorMask() []bool {
	alive := make([]bool, p.n)
	for v := range alive {
		alive[v] = p.Alive(v)
	}
	return alive
}

// CountedTarget computes the survivor-scoped completion mask and target
// for a protocol propagating the highest source message from sources on
// g: the nodes reachable from the surviving *maximum-holding* sources
// through never-crashing nodes, found by BFS over the crash schedule's
// survivor graph. Protocols install the mask on their Progress counting
// (only masked nodes count a threshold crossing) and use the target as
// the Progress goal, which is what lets faulted runs terminate instead of
// waiting forever on the dead.
//
// Rooting the BFS at the max-holders matters for multi-source runs
// (Compete(S), the leader elections): completion means reaching the
// *highest* message, and a survivor component that only contains
// lower-valued sources can never get there once crashes disconnect it —
// counting it would pin Done at false forever. For a single-source
// broadcast the source is trivially the max-holder, so the scoping is
// unchanged. When no max-holder survives (a fault plan that did not
// protect the would-be winner), every surviving source roots the BFS;
// when no source survives at all, the target is pinned out of reach
// (n+1, the same convention decay uses for an empty source map): the
// run then honestly exhausts its budget with Done == false rather than
// declare instant completion on an empty target.
func (p *FaultPlan) CountedTarget(g *graph.Graph, sources map[int]int64) (counted []bool, target int64) {
	alive := p.SurvivorMask()
	max, first := int64(0), true
	//lint:ordered max reduction over the values; order cannot change the maximum
	for _, v := range sources {
		if first || v > max {
			max, first = v, false
		}
	}
	roots := make([]int, 0, len(sources))
	//lint:ordered roots form a set; multi-root BFS reachability is root-order independent
	for s, v := range sources {
		if alive[s] && v == max {
			roots = append(roots, s)
		}
	}
	if len(roots) == 0 {
		//lint:ordered roots form a set; multi-root BFS reachability is root-order independent
		for s := range sources {
			if alive[s] {
				roots = append(roots, s)
			}
		}
	}
	counted = make([]bool, p.n)
	if len(roots) == 0 {
		return counted, int64(p.n) + 1
	}
	for v, dv := range g.MultiBFSAlive(roots, alive) {
		if dv != graph.Unreached {
			counted[v] = true
			target++
		}
	}
	return counted, target
}

// Wrap builds the per-node wrapper chain realizing the plan for node v —
// CrashNode outermost, then JamNode, then LossyNode around inner — with
// coin streams derived exactly as the engine overlay derives them, so a
// Wrap-based run and an overlay run of equal plans are observationally
// identical round for round (the equivalence the fault tests pin). The
// wrappers draw from freshly forked streams, leaving the plan's own
// streams untouched; still, do not both install a plan in an engine and
// Wrap with the same plan instance — use two plans built with equal
// parameters.
func (p *FaultPlan) Wrap(v int, inner Node) Node {
	p.check(v)
	nd := inner
	if p.lossP != nil && p.lossP[v] > 0 {
		nd = &LossyNode{Inner: nd, P: p.lossP[v], Rnd: p.base.Fork(lossStreamTag | uint64(v))}
	}
	if p.jamP != nil && p.jamP[v] > 0 {
		nd = &JamNode{Inner: nd, P: p.jamP[v], Rnd: p.base.Fork(jamStreamTag | uint64(v))}
	}
	if r := p.CrashRound(v); r != NoCrash {
		nd = &CrashNode{Inner: nd, CrashAt: r}
	}
	return nd
}

// dropRecv draws node v's fade coin for a delivery and reports whether the
// reception is lost. Only lossy nodes consume randomness, mirroring
// LossyNode's msg != nil gate.
func (p *FaultPlan) dropRecv(v int) bool {
	return p.lossP != nil && p.lossP[v] > 0 && p.lossRnd[v].Bernoulli(p.lossP[v])
}
