package radio

import (
	"fmt"
	"math"
	"slices"

	"radionet/internal/graph"
	"radionet/internal/rng"
)

// NoCrash is the CrashRound value of a node that never crashes.
const NoCrash = int64(math.MaxInt64)

// KindNoise tags transmissions that carry no protocol content (jamming).
// Protocols must ignore unknown kinds, so noise only causes collisions.
const KindNoise Kind = -1

// Stream-derivation tags for the plan's per-node fault coins: node v's jam
// coins come from the plan seed forked with jamStreamTag|v, its loss coins
// from lossStreamTag|v.
const (
	jamStreamTag  = 0x4a6d_0000_0000_0000
	lossStreamTag = 0x1055_0000_0000_0000
)

// FaultPlan is the engine-side fault overlay: a whole-network fault
// scenario — per-node crash rounds, a jammer set with per-round noise
// probability, and per-node reception-loss probability — that the engine
// applies inside Step as masks over the transmit list and the delivery
// pass. It is the repository's only fault mechanism, and it composes with
// every Protocol: the protocol computes its round obliviously and the
// engine masks dead transmitters, injects noise, and fades receptions
// afterwards, so faulted runs take the same path as unfaulted ones.
//
// Semantics, round by round (all rounds are global engine rounds):
//
//   - A node with crash round R is dead in every round t >= R: it never
//     transmits (its ActBulk transmissions are masked off the air), is
//     skipped by the listener pass, and stops counting toward
//     Metrics.Deliveries/Collisions. A bulk protocol may keep drawing
//     from the node's private randomness stream; the draws are
//     unobservable because nothing the node does reaches the network.
//     The per-node test adapter (node.go) does not ask a dead node to act.
//   - A live jammer draws one noise coin per round; when it fires, the
//     node transmits KindNoise this round regardless of what its protocol
//     chose (the protocol machine still stepped: a bulk Act pass cannot
//     suppress a single node's draws, so the per-node adapter does not
//     either).
//   - A lossy node draws one fade coin per successful reception; a faded
//     reception still counts as an engine delivery (the message was on the
//     air) but never reaches the protocol: it is left out of the
//     RecvBulk call.
//
// A plan is single-use: its jam/loss coin streams advance as the run
// executes. Build one plan per engine.
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

// dropRecv draws node v's fade coin for a delivery and reports whether the
// reception is lost. Only lossy nodes consume randomness, and only for
// deliveries (never for collisions).
func (p *FaultPlan) dropRecv(v int) bool {
	return p.lossP != nil && p.lossP[v] > 0 && p.lossRnd[v].Bernoulli(p.lossP[v])
}
