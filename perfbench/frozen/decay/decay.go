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

	"radionet/perfbench/frozen/graph"
	"radionet/perfbench/frozen/radio"
	"radionet/perfbench/frozen/rng"
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
	// JoinMidPhase lets a newly informed node start participating in the
	// current phase instead of waiting for the next phase boundary. The
	// classical analysis assumes phase-aligned joins; both succeed.
	JoinMidPhase bool
	// Wrap, if set, wraps each node's protocol before it is installed in
	// the engine — the fault-injection hook (see radio.CrashNode et al.).
	Wrap func(v int, n radio.Node) radio.Node
	// Faults, if set, is a whole-network fault scenario. Completion becomes
	// survivor-scoped: the Progress target is the set of nodes reachable
	// from the (surviving) sources in the survivor graph, so Done keeps
	// its meaning when crashed nodes can never be informed. With a nil
	// Wrap the plan is installed as the engine-side overlay (keeping the
	// bulk fast path); with a Wrap hook the overlay is left uninstalled
	// and the hook is expected to realize the same faults per node
	// (radio.FaultPlan.Wrap builds the equivalent wrapper chain).
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
// nodes whose value has reached the highest source value, informed counts
// nodes that know any value. Both are updated at the state transitions in
// Recv, so Done is O(1) instead of an O(n) scan per round. The per-node
// informed flags live here as one compact slice so the bulk Act pass
// streams ~n bytes, not the full node structs, while most nodes are
// uninformed.
type tracker struct {
	prog       radio.Progress
	informed   int
	trueMax    int64     // highest source value; propagation never exceeds it
	levels     int       // phase length, shared by every node
	probs      []float64 // probs[s] = Prob(s), precomputed per phase step
	thr        []uint64  // thr[s]: rnd.Uint64()>>11 < thr[s] <=> Bernoulli(probs[s])
	isInformed []bool    // per-node informed flag, indexed by node id
	// counted is the survivor-scoped completion mask (nil without a fault
	// plan): only nodes reachable from the surviving sources in the
	// survivor graph count toward prog, so nodes a crash schedule makes
	// uninformable can never pin Done at false.
	counted []bool
}

// node is the per-node state of the Decay broadcast protocol. Uninformed
// nodes are silent (the classical protocol does not use spontaneous
// transmissions).
type node struct {
	rnd        rng.Rand // embedded: nodes live in one contiguous slice
	tr         *tracker
	idx        int32
	joinMid    bool
	val        int64
	informedAt int64 // phase-aligned participation gate
	phaseStart int64 // start round of the phase containing the last Act
}

func (b *node) informed() bool { return b.tr.isInformed[b.idx] }

// Dormant implements radio.Sleeper: an uninformed node always listens,
// ignores silence, and consumes no randomness, so the engine may skip it.
func (b *node) Dormant() bool { return !b.informed() }

// IgnoresSilence implements radio.SilenceOblivious: Recv without a message
// is always a no-op.
func (b *node) IgnoresSilence() bool { return true }

func (b *node) Act(t int64) radio.Action {
	if !b.informed() {
		return radio.Listen
	}
	if !b.joinMid && t < b.informedAt {
		return radio.Listen
	}
	// step = t mod levels, tracked via the phase start to keep an integer
	// division off the hot path. The loop self-resyncs after Act gaps
	// (fault wrappers may swallow rounds) and normally runs 0 or 1 times.
	L := int64(b.tr.levels)
	for t-b.phaseStart >= L {
		b.phaseStart += L
	}
	step := int(t - b.phaseStart)
	if b.rnd.Bernoulli(b.tr.probs[step]) {
		return radio.Transmit(radio.Message{Kind: KindBroadcast, A: b.val})
	}
	return radio.Listen
}

func (b *node) Recv(t int64, msg *radio.Message, _ bool) {
	// val starts at the -1 sentinel, so for the non-negative message
	// values the protocol carries, "uninformed or strictly better" is the
	// single compare msg.A > b.val — the by-far common case (a re-delivery
	// to a saturated node) returns here.
	if msg == nil || msg.Kind != KindBroadcast || msg.A <= b.val {
		return
	}
	if !b.informed() {
		// Align participation to the next phase boundary.
		L := int64(b.tr.levels)
		b.informedAt = ((t / L) + 1) * L
		b.phaseStart = b.informedAt
		if b.joinMid {
			// Participation starts next round, mid-phase.
			b.phaseStart = (t + 1) - (t+1)%L
		}
		b.tr.isInformed[b.idx] = true
		b.tr.informed++
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
}

// NewBroadcast builds a Decay broadcast instance on g where each source
// node starts informed with its value from sources. seed determines all
// randomness. Source values must be non-negative (-1 is the internal
// uninformed sentinel, as in compete.Uninformed); negative values panic
// rather than silently failing to propagate.
func NewBroadcast(g *graph.Graph, cfg Config, seed uint64, sources map[int]int64) *Broadcast {
	n := g.N()
	L := cfg.levels(n)
	master := rng.New(seed)
	b := &Broadcast{nodes: make([]node, n)}
	b.tr.levels = L
	b.tr.probs = make([]float64, L)
	b.tr.thr = make([]uint64, L)
	for s := range b.tr.probs {
		p := Prob(s)
		b.tr.probs[s] = p
		// rng.Bernoulli(p) is Float64() < p with Float64 = (Uint64>>11)/2^53.
		// Both sides are exact powers of two, so the comparison equals the
		// integer test (Uint64>>11) < ceil(p*2^53) — same draw, same
		// outcome, no float math on the hot path.
		b.tr.thr[s] = uint64(math.Ceil(p * (1 << 53)))
	}
	b.tr.isInformed = make([]bool, n)
	rn := make([]radio.Node, n)
	for i := 0; i < n; i++ {
		b.nodes[i] = node{rnd: *master.Fork(uint64(i)), tr: &b.tr, idx: int32(i), joinMid: cfg.JoinMidPhase, val: -1}
		rn[i] = &b.nodes[i]
		if cfg.Wrap != nil {
			rn[i] = cfg.Wrap(i, rn[i])
		}
	}
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
	if cfg.Faults != nil {
		b.tr.counted, target = cfg.Faults.CountedTarget(g, sources)
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
		b.tr.informed++
		if v == b.tr.trueMax && (b.tr.counted == nil || b.tr.counted[s]) {
			atMax++
		}
	}
	b.tr.prog = *radio.NewProgress(target)
	b.tr.prog.Add(atMax)
	b.Engine = radio.NewEngine(g, rn)
	if cfg.Wrap == nil {
		// All engine nodes are exactly &b.nodes[i], so the bulk Act and
		// Recv fast paths are observationally identical; a Wrap hook
		// interposes per-node behavior and disables them.
		b.Engine.Bulk = b
		b.Engine.BulkRecv = b
		b.Engine.SetFaults(cfg.Faults)
	}
	return b
}

// ActBulk implements radio.BulkActor: one pass over the contiguous node
// slice, mirroring node.Act exactly (same checks, same RNG draws, same
// order) without per-node interface dispatch.
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
		if !nd.joinMid && t < nd.informedAt {
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

// RecvBulk implements radio.BulkReceiver: one pass over the round's
// deliveries. The per-listener call is node.Recv itself — static dispatch
// on the concrete type, so the seam removes the interface dispatches
// without duplicating the delivery logic.
//
//radionet:hotpath
func (b *Broadcast) RecvBulk(t int64, listeners, msgIdx []int32, msgs []radio.Message) {
	for k, vi := range listeners {
		b.nodes[vi].Recv(t, &msgs[msgIdx[k]], false)
	}
}

// Done reports whether every node knows the maximum source value. O(1):
// completion is tracked incrementally at the Recv transitions (see
// doneFullScan for the reference semantics it mirrors).
func (b *Broadcast) Done() bool { return b.tr.prog.Done() }

// doneFullScan is the O(n) reference implementation of Done, kept for the
// equivalence tests and the termination-checking benchmarks.
func (b *Broadcast) doneFullScan() bool {
	if b.tr.counted != nil {
		if b.tr.prog.Target() > int64(len(b.nodes)) {
			return false // the no-sources pin (target n+1): never done
		}
		// Survivor-scoped: every counted node informed of trueMax.
		for i := range b.nodes {
			if !b.tr.counted[i] {
				continue
			}
			if nd := &b.nodes[i]; !nd.informed() || nd.val != b.tr.trueMax {
				return false
			}
		}
		return true
	}
	max := int64(0)
	first := true
	for i := range b.nodes {
		if nd := &b.nodes[i]; nd.informed() && (first || nd.val > max) {
			max = nd.val
			first = false
		}
	}
	if first {
		return false
	}
	for i := range b.nodes {
		if nd := &b.nodes[i]; !nd.informed() || nd.val != max {
			return false
		}
	}
	return true
}

// InformedCount returns how many nodes are informed of any value.
func (b *Broadcast) InformedCount() int { return b.tr.informed }

// ReachTarget returns the number of nodes Done waits on: n for a
// fault-free broadcast, the survivor-reachable set size under a fault
// plan (n+1 when no sources were supplied — the unreachable pin).
func (b *Broadcast) ReachTarget() int { return int(b.tr.prog.Target()) }

// Reached returns how many target nodes know the maximum source value —
// the numerator of the fault campaigns' reach fraction.
func (b *Broadcast) Reached() int { return int(b.tr.prog.Count()) }

// Counted returns the survivor-scoped completion mask (nil for a
// fault-free broadcast): counted nodes are the ones Done waits on. The
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

// Run executes until completion or maxRounds, returning the rounds used in
// this call and whether broadcast completed.
func (b *Broadcast) Run(maxRounds int64) (int64, bool) {
	return b.Engine.RunUntil(maxRounds, &b.tr.prog)
}

// Participant is a reusable Decay phase driver for protocols that embed
// Decay as a sub-process (e.g. the paper's Algorithm 4 background process).
// A Participant does not itself decide *whether* to take part in a phase —
// the embedding protocol does — it only supplies the per-step coin.
type Participant struct {
	Levels int
	Rnd    *rng.Rand
}

// Transmitp reports whether to transmit at 0-based step s of the current
// phase.
func (p *Participant) Transmitp(s int) bool {
	return p.Rnd.Bernoulli(Prob(s % p.Levels))
}

var (
	_ radio.BulkRangeActor = (*Broadcast)(nil)
	_ radio.BulkReceiver   = (*Broadcast)(nil)
)
