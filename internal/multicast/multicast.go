// Package multicast implements k-message broadcast, the multi-message
// primitive behind Lemma 2.3's "one-to-all broadcast of k messages in
// O(D + k·log n + log⁶n) rounds": after the source injects k messages,
// every node must learn all of them.
//
// Two strategies are provided:
//
//   - Sequential: the classical reduction — k successive single-message
//     Decay broadcasts, Θ(k·(D+log n)·log n) rounds. This is the baseline
//     the pipelined bound is measured against.
//   - Pipelined: all messages propagate concurrently. Every informed node
//     participates in Decay phases continuously, each time transmitting its
//     newest message or a uniformly random known one (a newest-biased
//     random-push epidemic). Messages behave as k epidemics sharing the
//     channel: completion is Θ(D·log n + k·log n·log k)-flavored —
//     additive in k rather than multiplicative in k·D, which is the
//     pipelining shape Lemma 2.3 claims (the paper's schedules sharpen
//     the constants; see DESIGN.md §3). It is a radio.Protocol over one
//     node slice; node_test.go holds its per-node oracle.
//
// Experiment T8 regenerates the comparison.
package multicast

import (
	"errors"

	"radionet/internal/decay"
	"radionet/internal/graph"
	"radionet/internal/protocol"
	"radionet/internal/radio"
	"radionet/internal/rng"
)

// KindMulti tags pipelined multicast transmissions. A carries the message
// value, B its index.
const KindMulti radio.Kind = 5

// node is the pipelined per-node state.
type node struct {
	rnd    rng.Rand // embedded: nodes live in one contiguous slice
	vals   []int64
	known  []bool
	count  int
	latest int // most recently learned index; -1 before any
}

// Pipelined is a running pipelined k-message broadcast: a radio.Protocol
// over the per-node states, one slice indexed by node id.
type Pipelined struct {
	Engine *radio.Engine
	nodes  []node
	levels int            // Decay phase length
	prog   radio.Progress // nodes knowing all k messages
	def    int64          // the budget Run applies to budget <= 0
}

// NewPipelined builds a pipelined broadcast of msgs from src on g, of
// diameter d.
func NewPipelined(g *graph.Graph, d int, seed uint64, src int, msgs []int64) (*Pipelined, error) {
	if len(msgs) == 0 {
		return nil, errors.New("multicast: no messages")
	}
	if src < 0 || src >= g.N() {
		return nil, errors.New("multicast: source out of range")
	}
	n, k := g.N(), len(msgs)
	master := rng.New(seed)
	l := decay.Levels(n)
	p := &Pipelined{
		nodes:  make([]node, n),
		levels: l,
		def:    20 * (int64(d) + int64(k*l)) * int64(l),
	}
	p.prog = *radio.NewProgress(int64(n))
	vals, known := make([]int64, n*k), make([]bool, n*k)
	for v := range p.nodes {
		p.nodes[v] = node{
			rnd:    *master.Fork(uint64(v)),
			vals:   vals[v*k : (v+1)*k : (v+1)*k],
			known:  known[v*k : (v+1)*k : (v+1)*k],
			latest: -1,
		}
	}
	for i, m := range msgs {
		p.learn(&p.nodes[src], i, m)
	}
	p.Engine = radio.NewEngine(g, p)
	return p, nil
}

// learn records message idx with value val at nd; nd counts toward
// completion at its k-th message, which happens once.
func (p *Pipelined) learn(nd *node, idx int, val int64) {
	if idx >= 0 && idx < len(nd.known) && !nd.known[idx] {
		nd.known[idx] = true
		nd.vals[idx] = val
		nd.count++
		nd.latest = idx
		if nd.count == len(nd.known) {
			p.prog.Add(1)
		}
	}
}

// ActBulk implements radio.Protocol: the round's Decay probability once,
// then every informed node in ascending id draws its transmission coin
// and, on success, its message choice from its own stream. The per-node
// oracle it is tested against is refNode.Act (node_test.go): same coins,
// same order.
//
//radionet:hotpath
func (p *Pipelined) ActBulk(t int64, tx []int32, msgs []radio.Message) ([]int32, []radio.Message) {
	prob := decay.Prob(int(t % int64(p.levels)))
	for i := range p.nodes {
		nd := &p.nodes[i]
		if nd.count == 0 || !nd.rnd.Bernoulli(prob) {
			continue
		}
		// Newest-biased push: with probability 1/2 forward the most
		// recently learned message (it is the one the frontier still
		// lacks), otherwise a uniformly random known one (back-fill for
		// nodes that missed earlier epidemics). Pure uniform push dilutes
		// the frontier message by a 1/k factor and loses the
		// additive-in-k pipelining shape.
		idx := nd.latest
		if nd.rnd.Bernoulli(0.5) {
			pick := nd.rnd.Intn(nd.count)
			for j, ok := range nd.known {
				if !ok {
					continue
				}
				if pick == 0 {
					idx = j
					break
				}
				pick--
			}
		}
		tx = append(tx, int32(i))
		msgs = append(msgs, radio.Message{Kind: KindMulti, A: nd.vals[idx], B: int64(idx)})
	}
	return tx, msgs
}

// RecvBulk implements radio.Protocol: each listener learns the message it
// heard.
//
//radionet:hotpath
func (p *Pipelined) RecvBulk(_ int64, listeners, msgIdx []int32, msgs []radio.Message) {
	for k, v := range listeners {
		if msg := &msgs[msgIdx[k]]; msg.Kind == KindMulti {
			p.learn(&p.nodes[v], int(msg.B), msg.A)
		}
	}
}

// Done reports whether every node knows all k messages. O(1): learn
// reports each node's k-th message to the radio.Progress.
func (p *Pipelined) Done() bool { return p.prog.Done() }

// DefaultBudget implements protocol.Budgeted: 20·(D + k·L)·L.
func (p *Pipelined) DefaultBudget() int64 { return p.def }

// Run executes until completion or budget rounds (budget <= 0 selects
// DefaultBudget).
func (p *Pipelined) Run(budget int64) protocol.Result {
	if budget <= 0 {
		budget = p.def
	}
	rounds, done := p.Engine.RunUntil(budget, &p.prog)
	return protocol.Result{
		Rounds:      rounds,
		Tx:          p.Engine.Metrics.Transmissions,
		Done:        done,
		Reached:     int(p.prog.Count()),
		ReachTarget: int(p.prog.Target()),
	}
}

// Sequential runs k single-message Decay broadcasts back to back and
// reports the summed rounds and engine transmissions; Done means every
// broadcast completed. Each broadcast runs until globally complete
// (oracle-sequenced), so the total is exactly the classical reduction's
// cost on this instance. Message i's broadcast is seeded from
// rng.New(seed).Fork(i), so no two messages or runs share a sub-run seed.
// perMsgBudget <= 0 gives each broadcast 40·(n+L)·L rounds.
func Sequential(g *graph.Graph, seed uint64, src int, msgs []int64, perMsgBudget int64) protocol.Result {
	return newSequentialRunner(g, seed, src, msgs).run(perMsgBudget)
}

// sequentialRunner is one Sequential run: one decay.Broadcast on one
// engine, re-armed for every message.
type sequentialRunner struct {
	bc   *decay.Broadcast
	seed uint64
	src  int
	msgs []int64
}

func newSequentialRunner(g *graph.Graph, seed uint64, src int, msgs []int64) *sequentialRunner {
	// n bounds the diameter; the explicit budget leaves it unused.
	return &sequentialRunner{bc: decay.NewBroadcast(g, g.N(), decay.Config{}, seed, nil), seed: seed, src: src, msgs: msgs}
}

func (r *sequentialRunner) run(perMsgBudget int64) protocol.Result {
	if perMsgBudget <= 0 {
		l := int64(decay.Levels(r.bc.Engine.G.N()))
		perMsgBudget = 40 * (int64(r.bc.Engine.G.N()) + l) * l
	}
	res := protocol.Result{Done: true}
	master := rng.New(r.seed)
	for i, m := range r.msgs {
		r.bc.Rearm(master.Fork(uint64(i)).Uint64(), map[int]int64{r.src: m})
		br := r.bc.Run(perMsgBudget)
		res.Rounds += br.Rounds
		if !br.Done {
			res.Done = false
			break
		}
	}
	res.Tx = r.bc.Engine.Metrics.Transmissions
	return res
}

var _ protocol.Budgeted = (*Pipelined)(nil)
