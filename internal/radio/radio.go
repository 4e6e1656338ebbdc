// Package radio implements the synchronous multi-hop radio network model
// of the paper: nodes operate in discrete synchronous rounds, and in each
// round a node either transmits a message to all of its neighbors at once
// or stays silent and listens. A listening node receives a message if and
// only if exactly one of its neighbors transmits; otherwise it hears
// nothing, and it cannot distinguish silence from collision (the model
// has no collision detection). Spontaneous transmissions are allowed: any
// node may transmit in any round regardless of what it knows.
//
// The Engine drives one protocol interface, Protocol: a whole-round Act
// over the protocol's own node storage, then one bulk delivery of the
// round's receptions. Per-node state machines (node.go) are a test
// harness. The Engine advances all nodes in lock step, applies the
// collision semantics, and accounts rounds, transmissions, deliveries
// and collisions. Protocols that alternate several processes (the
// paper's main and background lanes) interleave them in time
// themselves, by engine round.
package radio

import (
	"runtime"
	"sync"

	"radionet/internal/graph"
)

// Kind discriminates protocol message types. Values are assigned by the
// protocol packages; the engine never interprets them.
type Kind int16

// Message is the unit of transmission. The model does not restrict message
// size, but every protocol here fits its data in the two integer fields.
// Message is 24 bytes and holds no pointers, so appending one to the
// engine's per-round transmit buffer needs no write barrier and the
// garbage collector never scans that buffer (TestMessageIsPointerFree).
type Message struct {
	Kind Kind
	Src  int32 // sender id, stamped by the engine
	A, B int64 // protocol-defined payload
}

// Metrics accumulates engine counters over a run.
type Metrics struct {
	Rounds        int64 // rounds executed
	Transmissions int64 // node-rounds spent transmitting
	Deliveries    int64 // listener-rounds with a successful reception
	Collisions    int64 // listener-rounds with >= 2 transmitting neighbors
}

// RoundHook observes one executed round: the ids of transmitting nodes
// (the slice is reused between rounds — copy it to retain), and the
// round's delivery and collision counts.
type RoundHook func(round int64, transmitters []int32, deliveries, collisions int)

// ChainHooks composes round hooks: the returned hook invokes every
// non-nil argument in order, with identical arguments. Nil entries are
// dropped, so callers chain unconditionally ("ChainHooks(e.Hook, mine)");
// zero live hooks return nil and a single live hook is returned as-is, so
// chaining never adds a dispatch layer it doesn't need. This is how
// tracing and metrics collection share the engine's single Hook slot
// without clobbering each other.
func ChainHooks(hooks ...RoundHook) RoundHook {
	live := hooks[:0:0]
	for _, h := range hooks {
		if h != nil {
			live = append(live, h)
		}
	}
	switch len(live) {
	case 0:
		return nil
	case 1:
		return live[0]
	}
	return func(round int64, transmitters []int32, deliveries, collisions int) {
		for _, h := range live {
			h(round, transmitters, deliveries, collisions)
		}
	}
}

// Protocol is the engine's one protocol interface: a whole-round Act and
// a bulk delivery, run over the protocol's own contiguous node storage.
type Protocol interface {
	// ActBulk appends the ids (ascending) and messages of this round's
	// transmitters to tx and msgs and returns the extended slices.
	ActBulk(round int64, tx []int32, msgs []Message) ([]int32, []Message)
	// RecvBulk delivers this round's receptions: for each k, node
	// listeners[k] heard msgs[msgIdx[k]], in ascending listener order.
	// All three slices are engine scratch, valid only for the duration of
	// the call; messages are shared between listeners and must be treated
	// as read-only. A round without receptions makes no call. Per-listener
	// effects must be node-local (no randomness drawn, no other node's
	// state touched), which is what makes the delivery order, and with it
	// the shard count, unobservable.
	RecvBulk(round int64, listeners, msgIdx []int32, msgs []Message)
}

// Engine executes a protocol on a graph under the radio collision model.
type Engine struct {
	G *graph.Graph
	// Hook, if set, is invoked after every round (tracing/metrics).
	Hook RoundHook
	// ShardHook, if set alongside SetShards(k > 1), receives per-shard
	// busy-time telemetry after each round (see ShardHook).
	ShardHook ShardHook

	Metrics Metrics

	proto    Protocol
	round    int64
	words    int    // ceil(n/64): length of every per-node bitset below
	tailMask uint64 // valid bits of the last word (all-ones when n%64 == 0)

	// Per-round bitsets, one bit per node (see kernel.go for the delivery
	// kernel algebra). onair/collided are cleared through the dirty
	// summary after every round; txw is cleared differentially through
	// the transmit list.
	onair    []uint64 // >= 1 transmitting neighbor this round
	collided []uint64 // >= 2 transmitting neighbors (subset of onair)
	txw      []uint64 // transmitted this round
	dirty    []uint64 // summary: bit w set if onair word w was touched (exact or a superset, see kernel.go)

	inbox    []int32   // txmsg index of a listener's last CSR marker (see markCSR; nil where it never runs, see setInbox)
	txidx    []int32   // node -> transmit-list index (valid while its txw bit is set)
	txwords  []int32   // words of txw holding a transmitter, for resolve (dense graphs only)
	txmsg    []Message // scratch: messages of transmitting nodes, parallel to transmit
	transmit []int32   // scratch: ids of transmitting nodes
	rcvID    []int32   // scratch: shard-concatenated delivery listeners
	rcvIdx   []int32   // scratch: txmsg index heard by each listener
	// dense is the graph's dense-adjacency layer, nil when it has no rows.
	dense *graph.AdjBits
	// saturated counts the rounds in which markDense found every live
	// listener collided and the unsharded marking pass stopped early
	// (read by the brute-force property test).
	saturated int64

	// Intra-round sharding (see SetShards): sh[0] is always present and
	// runs on the caller's goroutine; rangeAct is the protocol's
	// BulkRangeActor, resolved by SetShards and nil when unsharded or when
	// the protocol has no range Act. workerCmds are the resident wave
	// workers' command channels (nil when unsharded or after Close — see
	// workers.go); workerCleanup is the GC fallback that closes them if
	// the engine is dropped without Close.
	shards        int
	sh            []shardState
	wg            sync.WaitGroup
	rangeAct      BulkRangeActor
	workerCmds    []chan uint8
	workerCleanup runtime.Cleanup

	// Band marking (kernel.go), set up only on a graph with a band layer
	// and nil otherwise. txw is a view into txwPad, which carries
	// bands.Pad() zero words on either side, so the band word loops read
	// shifted words without a bounds branch. planes are the direction
	// bit-planes: plane 0 holds the backward bit and plane 1 the band
	// index, which stays zero on a one-band graph, so deliverBand reads
	// both without a branch; bandOff maps the direction index they spell
	// to the sender's id offset. spans holds each band direction's output
	// word range in the current round, and banded counts band-marked
	// rounds (read by the brute-force property test).
	bands   *graph.Bands
	txwPad  []uint64
	planes  [2][]uint64
	bandOff [2 * graph.MaxBands]int32
	spans   [2 * graph.MaxBands]wordSpan
	banded  int64
}

// NewEngine returns an engine running protocol p on g.
func NewEngine(g *graph.Graph, p Protocol) *Engine {
	n := g.N()
	words := (n + 63) / 64
	e := &Engine{
		G:        g,
		proto:    p,
		words:    words,
		onair:    make([]uint64, words),
		collided: make([]uint64, words),
		txw:      make([]uint64, words),
		dirty:    make([]uint64, (words+63)/64),
		txidx:    make([]int32, n),
		txmsg:    make([]Message, 0, n),
		transmit: make([]int32, 0, n),
		// rcvID/rcvIdx grow on first use: only a sharded engine
		// concatenates the shards' delivery lists.
	}
	// A graph without dense rows leaves dense nil, so each transmitter's
	// row lookup in the marking and resolve passes is one nil check.
	if d := g.DenseAdj(); d.Rows() > 0 {
		e.dense = d
		e.txwords = make([]int32, 0, words)
	}
	if b := g.Bands(); b != nil {
		e.setBands(b)
	}
	if n > 0 {
		e.tailMask = ^uint64(0)
		if r := n & 63; r != 0 {
			e.tailMask = uint64(1)<<uint(r) - 1
		}
	}
	// Shard state 0 always exists and aliases the engine bitsets: the
	// unsharded engine runs the very same classify+replay path as any
	// sharded one, so shard-count invariance has no second code path to
	// drift from.
	e.shards = 1
	e.sh = make([]shardState, 1)
	e.sh[0] = shardState{
		eng: e, w1: words, hi: int32(n),
		onair: e.onair, collided: e.collided, dirty: e.dirty,
	}
	e.setInbox()
	return e
}

// setInbox allocates inbox where markCSR can write it: on an unsharded
// engine over a graph without bands, some of whose nodes lack a dense
// row. Elsewhere inbox is nil: a band graph is marked by word loops and
// resolved through the bit-planes, an all-dense graph's marking never
// reaches a CSR row, and the sharded marking pass writes no inbox.
func (e *Engine) setInbox() {
	if e.shards > 1 || e.bands != nil || e.G.DenseAdj().Rows() == e.G.N() {
		e.inbox = nil
	} else if e.inbox == nil {
		e.inbox = make([]int32, e.G.N())
	}
}

// Round returns the index of the next round to execute.
func (e *Engine) Round() int64 { return e.round }

// Step executes exactly one synchronous round: the protocol's ActBulk
// (its range Act across the shards when sharded), transmit-marking into
// the onair/collided bitsets, word-parallel listener classification, and
// one RecvBulk call with the classified deliveries. The classify
// accumulators bucket every listener before any protocol code runs, so
// deliveries arrive in ascending node id — per-listener effects are
// node-local (see Protocol.RecvBulk), so this order is observationally
// equivalent to the seed's interleaved pass and, crucially, independent
// of the shard count.
//
//radionet:hotpath
func (e *Engine) Step() {
	t := e.round
	e.round++
	e.Metrics.Rounds++
	// txw is maintained differentially: the bits set last round are
	// exactly last round's transmit list.
	for _, u := range e.transmit {
		e.txw[u>>6] &^= 1 << (uint(u) & 63)
	}
	e.transmit = e.transmit[:0]
	e.txmsg = e.txmsg[:0]
	if e.rangeAct != nil {
		e.actWave()
	} else {
		e.transmit, e.txmsg = e.proto.ActBulk(t, e.transmit, e.txmsg)
	}
	e.setTxw()
	e.Metrics.Transmissions += int64(len(e.transmit))
	// Stamp sender ids and the transmit-list index map before marking:
	// txidx[u] is how singleton resolution recovers the heard message on
	// paths that bypass the inbox (dense rows, sharded marking).
	for j, u := range e.transmit {
		e.txmsg[j].Src = u
		e.txidx[u] = int32(j)
	}
	if e.shards > 1 {
		e.markWave()
		e.classifyWave()
	} else {
		e.mark()
		e.sh[0].runClassify()
	}
	// One delivery call in shard (= ascending node) order; no protocol
	// code ran since the Act.
	deliveries, collisions := 0, 0
	rid, ridx := e.sh[0].rcvID, e.sh[0].rcvIdx
	if e.shards > 1 {
		e.rcvID = e.rcvID[:0]
		e.rcvIdx = e.rcvIdx[:0]
		for s := range e.sh {
			e.rcvID = append(e.rcvID, e.sh[s].rcvID...)
			e.rcvIdx = append(e.rcvIdx, e.sh[s].rcvIdx...)
		}
		rid, ridx = e.rcvID, e.rcvIdx
	}
	for s := range e.sh {
		deliveries += e.sh[s].deliveries
		collisions += e.sh[s].collisions
	}
	if len(rid) > 0 {
		e.proto.RecvBulk(t, rid, ridx, e.txmsg)
	}
	e.clearRound()
	e.Metrics.Deliveries += int64(deliveries)
	e.Metrics.Collisions += int64(collisions)
	if e.ShardHook != nil {
		e.flushShardBusy()
	}
	if e.Hook != nil {
		e.Hook(t, e.transmit, deliveries, collisions)
	}
}

// setTxw sets the transmit list's bits in txw. On a graph with dense
// rows it also lists, in txwords, each word that gains its first bit, so
// resolve intersects a dense row with those words only.
//
//radionet:hotpath
func (e *Engine) setTxw() {
	if e.dense == nil {
		for _, u := range e.transmit {
			e.txw[u>>6] |= 1 << (uint(u) & 63)
		}
		return
	}
	txw := e.txw
	e.txwords = e.txwords[:0]
	for _, u := range e.transmit {
		w := u >> 6
		if txw[w] == 0 {
			e.txwords = append(e.txwords, w)
		}
		txw[w] |= 1 << (uint(u) & 63)
	}
}

// Progress is the engine-side convention for O(1) termination checking on
// the simulation hot path. A protocol that knows its completion target up
// front (typically "all n nodes reached some state") holds one Progress,
// shares a pointer to it with its per-node state machines, and calls Add
// from inside Recv (or wherever the tracked state transition happens) —
// never from a scan. Done then costs a single counter comparison per
// round instead of the O(n) full scan a stop predicate would need.
//
// The counting discipline that keeps Done equivalent to a full scan:
// call Add(1) exactly when a node crosses the tracked threshold for the
// first time, count nodes that start beyond the threshold at construction
// time, and never decrement. A target the protocol can prove unreachable
// (e.g. "no source was supplied") may be encoded as target = n+1, which
// pins Done at false forever. The zero value (target 0, count 0) reports
// Done immediately, matching the vacuous full scan over zero nodes.
type Progress struct {
	target int64
	count  int64
}

// NewProgress returns a Progress that completes after target Add units.
func NewProgress(target int64) *Progress { return &Progress{target: target} }

// Add records d units of completion (d may be 0; negative d is a caller
// bug and will desynchronize Done from the protocol state).
func (p *Progress) Add(d int64) { p.count += d }

// Count returns the units recorded so far.
func (p *Progress) Count() int64 { return p.count }

// Target returns the completion target.
func (p *Progress) Target() int64 { return p.target }

// Done reports whether the target has been reached. O(1).
func (p *Progress) Done() bool { return p.count >= p.target }

// RunUntil executes rounds until p.Done() or maxRounds rounds have been
// executed in this call, whichever comes first. p.Done() is evaluated
// once before the first round, so an already-reached target costs zero
// rounds, and then after every round. It returns the number of rounds
// executed by this call and whether the target was reached. The
// per-round check is a counter comparison, with no predicate closure.
func (e *Engine) RunUntil(maxRounds int64, p *Progress) (rounds int64, done bool) {
	if p.Done() {
		return 0, true
	}
	for rounds = 0; rounds < maxRounds; {
		e.Step()
		rounds++
		if p.Done() {
			return rounds, true
		}
	}
	return rounds, false
}
