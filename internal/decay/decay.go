// Package decay implements the Decay transmission primitive of Bar-Yehuda,
// Goldreich and Itai (Algorithm 5 of the paper) and the classical
// Decay-based broadcasting algorithm built on it, which serves both as the
// paper's collision-handling workhorse and as the O((D+log n)·log n)
// baseline from [3].
//
// One "round of Decay" is a phase of L ≈ log2 n consecutive time steps; in
// step i (1-based) of a phase every participating node transmits with
// probability 2^-i. Lemma 3.1: after a single phase, a listening node with
// at least one participating neighbor receives a message with constant
// probability, regardless of how many neighbors participate.
package decay

import (
	"fmt"
	"math"
	"math/bits"

	"radionet/internal/graph"
	"radionet/internal/protocol"
	"radionet/internal/radio"
	"radionet/internal/rng"
)

// KindBroadcast tags messages of the Decay broadcast protocols.
const KindBroadcast radio.Kind = 1

// Levels returns the number of steps in one Decay phase for an n-node
// network: ceil(log2 n), at least 1.
func Levels(n int) int {
	if n <= 2 {
		return 1
	}
	return bits.Len(uint(n - 1))
}

// Prob returns the transmission probability at 0-based step s of a phase:
// 2^-(s+1). Large steps (possible when a caller sets Config.Levels beyond
// the float64 exponent range) degrade gracefully toward 0 instead of
// overflowing the shift.
func Prob(s int) float64 {
	if s >= 62 {
		// int64(1)<<uint(s+1) wraps at 63 and overflows at 64; Ldexp
		// computes the same exact power of two (subnormal below 2^-1022,
		// then 0), so the probability stays finite and monotone.
		return math.Ldexp(1, -(s + 1))
	}
	return 1 / float64(int64(1)<<uint(s+1))
}

// Config parameterizes the Decay broadcast protocols.
type Config struct {
	// Levels is the phase length L. Zero means Levels(n).
	Levels int
	// Faults, if set, is a whole-network fault scenario, installed as the
	// engine-side overlay. Completion becomes survivor-scoped: the
	// Progress target is the set of nodes reachable from the (surviving)
	// sources in the survivor graph, so completion keeps its meaning when
	// crashed nodes can never be informed.
	Faults *radio.FaultPlan
}

func (c Config) levels(n int) int {
	if c.Levels > 0 {
		return c.Levels
	}
	return Levels(n)
}

// tracker is the broadcast-wide incremental completion state shared by all
// nodes of one instance (see the radio.Progress convention): prog counts
// nodes whose value has reached the highest source value. It is updated at
// the state transitions in Recv, so completion is an O(1) check instead of
// an O(n) scan per round. The per-node informed flags live here as one
// compact slice so the bulk Act pass streams ~n bytes, not the full node
// structs, while most nodes are uninformed.
type tracker struct {
	prog       radio.Progress
	trueMax    int64    // highest source value; propagation never exceeds it
	t0         int64    // engine round the broadcast was armed at
	levels     int      // phase length, shared by every node
	thr        []uint64 // thr[s]: rnd.Uint64()>>11 < thr[s] <=> Bernoulli(Prob(s))
	isInformed []bool   // per-node informed flag, indexed by node id
	// counted is the survivor-scoped completion mask (nil without a fault
	// plan): only nodes reachable from the surviving sources in the
	// survivor graph count toward prog, so nodes a crash schedule makes
	// uninformable can never pin completion at false.
	counted []bool
}

// node is the per-node state of the Decay broadcast protocol. Uninformed
// nodes are silent (the classical protocol does not use spontaneous
// transmissions).
type node struct {
	rnd        rng.Rand // embedded: nodes live in one contiguous slice
	tr         *tracker
	idx        int32
	val        int64
	informedAt int64 // phase-aligned participation gate
	phaseStart int64 // start round of the phase containing the last Act
}

func (b *node) informed() bool { return b.tr.isInformed[b.idx] }

func (b *node) Recv(t int64, msg *radio.Message) {
	// val starts at the -1 sentinel, so for the non-negative message
	// values the protocol carries, "uninformed or strictly better" is the
	// single compare msg.A > b.val — the by-far common case (a re-delivery
	// to a saturated node) returns here.
	if msg.Kind != KindBroadcast || msg.A <= b.val {
		return
	}
	if !b.informed() {
		// Align participation to the next phase boundary, counted from t0
		// (the classical analysis assumes phase-aligned joins).
		L, t0 := int64(b.tr.levels), b.tr.t0
		b.informedAt = t0 + ((t-t0)/L+1)*L
		b.phaseStart = b.informedAt
		b.tr.isInformed[b.idx] = true
	}
	b.val = msg.A
	// Circulating values are source values, so the threshold is crossed
	// at most once per node: val only grows and never exceeds trueMax.
	if msg.A == b.tr.trueMax && (b.tr.counted == nil || b.tr.counted[b.idx]) {
		b.tr.prog.Add(1)
	}
}

// Broadcast is a running instance of the Decay broadcast protocol from a
// set of sources. With a single source it is exactly the [3] algorithm;
// with many, all nodes converge on the highest source value (the
// multi-source extension used by the binary-search leader election of [2]).
type Broadcast struct {
	Engine *radio.Engine
	nodes  []node
	tr     tracker
	faults *radio.FaultPlan // Config.Faults, for Rearm's completion target
	def    int64            // the budget Run applies to budget <= 0
}

// NewBroadcast builds a Decay broadcast instance on g, of diameter d,
// where each source node starts informed with its value from sources.
// seed determines all randomness. Source values must be non-negative (-1
// is the internal uninformed sentinel, as in compete.Uninformed);
// negative values panic rather than silently failing to propagate.
func NewBroadcast(g *graph.Graph, d int, cfg Config, seed uint64, sources map[int]int64) *Broadcast {
	n := g.N()
	L := cfg.levels(n)
	// The whp-sufficient budget 20·(D+L)·L uses L = Levels(n) even when
	// cfg.Levels truncates the phases.
	l := int64(Levels(n))
	b := &Broadcast{nodes: make([]node, n), faults: cfg.Faults, def: 20 * (int64(d) + l) * l}
	b.tr.levels = L
	b.tr.thr = make([]uint64, L)
	for s := range b.tr.thr {
		p := Prob(s)
		// rng.Bernoulli(p) is Float64() < p with Float64 = (Uint64>>11)/2^53.
		// Both sides are exact powers of two, so the comparison equals the
		// integer test (Uint64>>11) < ceil(p*2^53) — same draw, same
		// outcome, no float math on the hot path.
		b.tr.thr[s] = uint64(math.Ceil(p * (1 << 53)))
	}
	b.tr.isInformed = make([]bool, n)
	b.Engine = radio.NewEngine(g, b)
	b.Engine.SetFaults(cfg.Faults)
	b.Rearm(seed, sources)
	return b
}

// Rearm resets b to a fresh broadcast of sources under seed, armed at the
// engine's next round t0 (NewBroadcast arms at 0). The engine clock is
// never rewound: node time counts from t0, so the run is a fresh one
// shifted by t0, and Engine.Metrics stay cumulative. A fault plan keeps
// the engine's clock, so the shift holds only for plans whose effect
// ignores the round.
func (b *Broadcast) Rearm(seed uint64, sources map[int]int64) {
	n := len(b.nodes)
	t0 := b.Engine.Round()
	master := rng.New(seed)
	for i := range b.nodes {
		b.nodes[i] = node{rnd: *master.Fork(uint64(i)), tr: &b.tr, idx: int32(i), val: -1}
	}
	clear(b.tr.isInformed)
	b.tr.t0, b.tr.trueMax = t0, 0
	first := true
	//lint:ordered max reduction over the values; order cannot change the maximum
	for _, v := range sources {
		if first || v > b.tr.trueMax {
			b.tr.trueMax = v
			first = false
		}
	}
	// Completion: every node at trueMax — every survivor-reachable node
	// under a fault plan (see Config.Faults). With no sources nothing can
	// ever circulate, so the target is pinned out of reach (the full
	// scan's "no informed node" case).
	target := int64(n)
	if b.faults != nil {
		b.tr.counted, target = b.faults.CountedTarget(b.Engine.G, sources)
	}
	if len(sources) == 0 {
		target = int64(n) + 1
	}
	atMax := int64(0)
	//lint:ordered keyed writes per source plus commutative counters; the panic fires only on inputs register.go already rejects
	for s, v := range sources {
		if v < 0 {
			panic(fmt.Sprintf("decay: source %d has negative message %d", s, v))
		}
		b.tr.isInformed[s] = true
		b.nodes[s].val = v
		b.nodes[s].informedAt, b.nodes[s].phaseStart = t0, t0
		if v == b.tr.trueMax && (b.tr.counted == nil || b.tr.counted[s]) {
			atMax++
		}
	}
	b.tr.prog = *radio.NewProgress(target)
	b.tr.prog.Add(atMax)
}

// ActBulk implements radio.Protocol: one pass over the contiguous node
// slice, in ascending id order. The per-node oracle it is tested against
// is node.Act (node_test.go): same checks, same RNG draws, same order.
//
//radionet:hotpath
func (b *Broadcast) ActBulk(t int64, tx []int32, msgs []radio.Message) ([]int32, []radio.Message) {
	return b.ActBulkRange(t, 0, int32(len(b.nodes)), tx, msgs)
}

// ActBulkRange implements radio.BulkRangeActor, restricting the ActBulk
// pass to ids in [lo, hi) so the engine can shard the Act wave. Safe to
// run concurrently on disjoint ranges: every mutation (phase resync, the
// transmission coin) lives in the node's own struct, and the tracker
// fields read here (isInformed, levels, thr) are only written during Recv
// replay, never inside Act.
//
//radionet:hotpath
func (b *Broadcast) ActBulkRange(t int64, lo, hi int32, tx []int32, msgs []radio.Message) ([]int32, []radio.Message) {
	L := int64(b.tr.levels)
	thr := b.tr.thr
	for i := lo; i < hi; i++ {
		if !b.tr.isInformed[i] {
			continue
		}
		nd := &b.nodes[i]
		if t < nd.informedAt {
			continue
		}
		for t-nd.phaseStart >= L {
			nd.phaseStart += L
		}
		step := int(t - nd.phaseStart)
		if nd.rnd.Uint64()>>11 < thr[step] { // == rnd.Bernoulli(probs[step])
			tx = append(tx, i)
			msgs = append(msgs, radio.Message{Kind: KindBroadcast, A: nd.val})
		}
	}
	return tx, msgs
}

// RecvBulk implements radio.Protocol: one pass over the round's
// deliveries. The per-listener call is node.Recv itself — static dispatch
// on the concrete type, so the delivery logic exists once.
//
//radionet:hotpath
func (b *Broadcast) RecvBulk(t int64, listeners, msgIdx []int32, msgs []radio.Message) {
	for k, vi := range listeners {
		b.nodes[vi].Recv(t, &msgs[msgIdx[k]])
	}
}

// ReachTarget returns the number of nodes completion waits on: n for a
// fault-free broadcast, the survivor-reachable set size under a fault
// plan (n+1 when no sources were supplied — the unreachable pin). The
// broadcast is complete once Reached reaches it.
func (b *Broadcast) ReachTarget() int { return int(b.tr.prog.Target()) }

// Reached returns how many target nodes know the maximum source value —
// the numerator of the fault campaigns' reach fraction.
func (b *Broadcast) Reached() int { return int(b.tr.prog.Count()) }

// Counted returns the survivor-scoped completion mask (nil for a
// fault-free broadcast): counted nodes are the ones completion waits on. The
// returned slice is the broadcast's own — treat it as read-only.
func (b *Broadcast) Counted() []bool { return b.tr.counted }

// Values returns a copy of each node's current value; uninformed nodes
// report -1.
func (b *Broadcast) Values() []int64 {
	vs := make([]int64, len(b.nodes))
	for i := range b.nodes {
		if nd := &b.nodes[i]; nd.informed() {
			vs[i] = nd.val
		} else {
			vs[i] = -1
		}
	}
	return vs
}

// DefaultBudget implements protocol.Budgeted: the whp-sufficient Decay
// broadcast budget 20·(D+L)·L with L = ceil(log2 n) levels.
func (b *Broadcast) DefaultBudget() int64 { return b.def }

// Run executes until completion or budget rounds (budget <= 0 selects
// DefaultBudget). Tx is the engine's count over every armed run.
func (b *Broadcast) Run(budget int64) protocol.Result {
	if budget <= 0 {
		budget = b.def
	}
	rounds, done := b.Engine.RunUntil(budget, &b.tr.prog)
	return protocol.Result{
		Rounds:      rounds,
		Tx:          b.Engine.Metrics.Transmissions,
		Done:        done,
		Reached:     b.Reached(),
		ReachTarget: b.ReachTarget(),
	}
}

var (
	_ radio.Protocol       = (*Broadcast)(nil)
	_ radio.BulkRangeActor = (*Broadcast)(nil)
	_ protocol.Budgeted    = (*Broadcast)(nil)
)
