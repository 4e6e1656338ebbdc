// Package radio implements the synchronous multi-hop radio network model
// of the paper: nodes operate in discrete synchronous rounds, and in each
// round a node either transmits a message to all of its neighbors at once
// or stays silent and listens. A listening node receives a message if and
// only if exactly one of its neighbors transmits; otherwise it hears
// nothing, and — in the default model without collision detection — cannot
// distinguish silence from collision. Spontaneous transmissions are
// allowed: any node may transmit in any round regardless of what it knows.
//
// Protocols are per-node state machines (the Node interface). The Engine
// advances all nodes in lock step, applies the collision semantics, and
// accounts rounds, transmissions, deliveries and collisions. A TDM
// multiplexer composes sub-protocols into interleaved "lanes", which is how
// the paper alternates its main and background processes.
package radio

import (
	"cmp"
	"fmt"
	"runtime"
	"slices"
	"sync"

	"radionet/perfbench/frozen/graph"
)

// Kind discriminates protocol message types. Values are assigned by the
// protocol packages; the engine never interprets them.
type Kind int16

// Message is the unit of transmission. The model does not restrict message
// size; most protocol messages fit the two integer payload fields, and the
// rare large payloads (e.g. a clustering sequence) ride in Payload.
type Message struct {
	Kind Kind
	Src  int32 // sender id, stamped by the engine
	A, B int64 // protocol-defined payload
	// Payload carries large protocol data. It must be treated as
	// immutable by receivers.
	Payload any
}

// Action is a node's choice for one round: transmit Msg, or listen.
type Action struct {
	Transmit bool
	Msg      Message
}

// Listen is the do-nothing action.
var Listen = Action{}

// Transmit returns a transmitting action carrying msg.
func Transmit(msg Message) Action { return Action{Transmit: true, Msg: msg} }

// Node is a protocol state machine for a single network node.
//
// In every round the engine first calls Act on every node to collect the
// round's actions, then applies collision semantics and calls Recv on
// every node that listened. A transmitting node never receives (a radio
// cannot listen while transmitting).
type Node interface {
	// Act returns the node's action for the given round.
	Act(round int64) Action
	// Recv reports the outcome of the round to a listening node.
	// msg is nil if the node heard nothing; the pointer is only valid for
	// the duration of the call and the Message must be treated as
	// read-only (listeners of one transmitter share the underlying
	// storage). collided is false in the model without collision
	// detection regardless of interference; with collision detection
	// enabled it reports that two or more neighbors transmitted.
	Recv(round int64, msg *Message, collided bool)
}

// Sleeper is an optional extension of Node for protocols with a dormant
// state, the second half of the hot-path contract alongside Progress. A
// node reporting Dormant() == true promises that, until it next receives a
// message (or a collision report when collision detection is enabled), it
// will always Listen, ignores silence reports, and consumes no randomness.
// The engine then skips the node's Act call entirely and skips the
// nothing-heard Recv call, so rounds cost O(active + on-air) node work
// instead of O(n). After delivering a reception to a dormant node the
// engine re-queries Dormant; a node that has reported itself non-dormant
// (at construction or after a wake-up) stays awake for the rest of the
// run — dormancy is exited at most once.
//
// Wrapped nodes (fault injection, TDM) do not implement Sleeper and are
// simply always awake; correctness never depends on the extension.
type Sleeper interface {
	Node
	// Dormant reports whether the node is in its dormant state.
	Dormant() bool
}

// SilenceOblivious is an optional marker extension of Node: a node whose
// IgnoresSilence returns true declares that its Recv is a no-op whenever
// msg == nil and collided == false, so the engine may skip nothing-heard
// Recv calls. When every node of an engine declares it, the per-round
// listener pass shrinks from O(n) to O(nodes with a transmitting
// neighbor). Every protocol node in this repository qualifies; test
// doubles and fault wrappers simply don't implement the marker and keep
// the full per-round Recv contract.
type SilenceOblivious interface {
	Node
	// IgnoresSilence reports whether Recv(t, nil, false) is a no-op for
	// the node's entire lifetime. Consulted once, at engine construction.
	IgnoresSilence() bool
}

// Silent is a Node that always listens and ignores everything.
type Silent struct{}

// Act implements Node.
func (Silent) Act(int64) Action { return Listen }

// Recv implements Node.
func (Silent) Recv(int64, *Message, bool) {}

// Dormant implements Sleeper: Silent is dormant forever.
func (Silent) Dormant() bool { return true }

// IgnoresSilence implements SilenceOblivious.
func (Silent) IgnoresSilence() bool { return true }

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
// tracing, fault accounting and metrics collection share the engine's
// single Hook slot without clobbering each other.
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

// AddHook appends h to the engine's hook chain, preserving any installed
// hook (the composing alternative to assigning Hook directly).
func (e *Engine) AddHook(h RoundHook) {
	e.Hook = ChainHooks(e.Hook, h)
}

// BulkActor is an optional protocol-side fast path for the Act half of a
// round: one call computes the whole round's transmissions, replacing n
// interface dispatches (and n Action returns) with a single call into a
// loop the protocol can run over its own contiguous node storage. The
// implementation MUST be observationally identical to calling Act on every
// node in increasing id order — same transmitters, same messages, same
// randomness consumed — it is an optimization seam, never a semantic one.
// Protocols install it via Engine.Bulk before the first Step; wrapped
// nodes (fault injection) cannot use it, so constructors leave Bulk nil
// whenever a Wrap hook is set.
type BulkActor interface {
	// ActBulk appends the ids (ascending) and messages of this round's
	// transmitters to tx and msgs and returns the extended slices.
	ActBulk(round int64, tx []int32, msgs []Message) ([]int32, []Message)
}

// BulkReceiver is the Recv-side counterpart of BulkActor: one call delivers
// the whole round's successful receptions, replacing per-listener interface
// dispatches with a loop the protocol runs over its own contiguous node
// storage. Only deliveries travel through the seam — collision reports
// (when collision detection is enabled) and nothing-heard reports (for
// nodes that do not ignore silence) stay on the per-node Recv path, so a
// node is handed to at most one of the two paths per round.
//
// The implementation MUST be observationally identical to calling
// Recv(round, &msgs[msgIdx[k]], false) on each listeners[k] in slice order;
// like the engine's sparse listener pass, the seam assumes per-listener
// effects are node-local (no protocol draws randomness or touches another
// node's state in Recv). A protocol installs it via Engine.BulkRecv only
// when it owns every engine node — wrapped/fault-injected nodes keep the
// existing per-node path, so constructors leave BulkRecv nil whenever a
// Wrap hook is set. The engine re-queries Sleeper dormancy for delivered
// nodes after the call, preserving the wake-up contract.
type BulkReceiver interface {
	// RecvBulk delivers this round's receptions: for each k, node
	// listeners[k] heard msgs[msgIdx[k]]. All three slices are engine
	// scratch, valid only for the duration of the call; messages are
	// shared between listeners and must be treated as read-only.
	RecvBulk(round int64, listeners, msgIdx []int32, msgs []Message)
}

// Engine executes a protocol on a graph under the radio collision model.
type Engine struct {
	G     *graph.Graph
	Nodes []Node
	// CollisionDetection selects the stronger model variant in which
	// listeners can distinguish collision from silence. The paper's model
	// (and all defaults) leave it false.
	CollisionDetection bool
	// Hook, if set, is invoked after every round (tracing/metrics).
	Hook RoundHook
	// Bulk, if non-nil, replaces the per-node Act loop (see BulkActor).
	Bulk BulkActor
	// BulkRecv, if non-nil, replaces per-node delivery Recv calls in both
	// listener passes (see BulkReceiver).
	BulkRecv BulkReceiver
	// ShardHook, if set alongside SetShards(k > 1), receives per-shard
	// busy-time telemetry after each round (see ShardHook).
	ShardHook ShardHook

	Metrics Metrics

	round    int64
	words    int    // ceil(n/64): length of every per-node bitset below
	tailMask uint64 // valid bits of the last word (all-ones when n%64 == 0)

	// Per-round bitsets, one bit per node (see kernel.go for the delivery
	// kernel algebra). onair/collided are cleared through the dirty
	// summary after every round; txw is cleared differentially through
	// the transmit list; deadw/dormw/quietw persist across rounds.
	onair    []uint64 // >= 1 transmitting neighbor this round
	collided []uint64 // >= 2 transmitting neighbors (subset of onair)
	txw      []uint64 // transmitted this round
	deadw    []uint64 // crashed (overlay schedule or Mortal wrapper)
	dormw    []uint64 // dormant Sleeper nodes
	quietw   []uint64 // SilenceOblivious nodes
	dirty    []uint64 // summary: bit w set iff onair word w was touched

	inbox    []int32   // txmsg index heard on first touch (unsharded CSR marking)
	instamp  []int64   // round stamp validating inbox
	txidx    []int32   // node -> transmit-list index (valid while its txw bit is set)
	txmsg    []Message // scratch: messages of transmitting nodes, parallel to transmit
	transmit []int32   // scratch: ids of transmitting nodes
	rcvID    []int32   // scratch: shard-concatenated bulk-delivery listeners
	rcvIdx   []int32   // scratch: txmsg index heard by each bulk listener
	sleeper  []Sleeper // nil for nodes without the Sleeper extension
	allQuiet bool      // every node ignores silence: classify touched words only
	dense    *graph.AdjBits

	// Intra-round sharding (see SetShards): sh[0] is always present and
	// runs on the caller's goroutine; rangeBulk caches the per-round
	// BulkRangeActor assertion on Bulk. workerCmds are the resident wave
	// workers' command channels (nil when unsharded or after Close — see
	// workers.go); workerCleanup is the GC fallback that closes them if
	// the engine is dropped without Close.
	shards        int
	sh            []shardState
	wg            sync.WaitGroup
	rangeBulk     BulkRangeActor
	workerCmds    []chan uint8
	workerCleanup runtime.Cleanup

	// Round-executor driver (see SetDriver): when non-nil the Act and
	// Recv halves of Step route through it instead of touching e.Nodes;
	// live is the reused per-round scratch of pollable node ids.
	driver Driver
	live   []int32

	// Fault state: deadw is the union of the overlay's crash schedule and
	// the Mortal wrappers' reports; a dead node is off the air and out of
	// the listener pass. anyDead gates the per-node Act check so unfaulted
	// runs pay one predictable branch.
	fault      *FaultPlan
	hasLoss    bool
	anyDead    bool
	crashSched []crashEvent
	crashCur   int
	mortals    []mortalRef
}

// crashEvent is one overlay crash, sorted by round for the Step cursor.
type crashEvent struct {
	round int64
	node  int32
}

// mortalRef pairs a Mortal wrapper with its node id for the per-round poll.
type mortalRef struct {
	id int32
	nd Mortal
}

// NewEngine returns an engine running nodes on g. len(nodes) must equal
// g.N().
func NewEngine(g *graph.Graph, nodes []Node) *Engine {
	if len(nodes) != g.N() {
		panic(fmt.Sprintf("radio: %d nodes for graph with %d vertices", len(nodes), g.N()))
	}
	n := g.N()
	words := (n + 63) / 64
	e := &Engine{
		G:        g,
		Nodes:    nodes,
		words:    words,
		onair:    make([]uint64, words),
		collided: make([]uint64, words),
		txw:      make([]uint64, words),
		deadw:    make([]uint64, words),
		dormw:    make([]uint64, words),
		quietw:   make([]uint64, words),
		dirty:    make([]uint64, (words+63)/64),
		inbox:    make([]int32, n),
		instamp:  make([]int64, n),
		txidx:    make([]int32, n),
		txmsg:    make([]Message, 0, n),
		transmit: make([]int32, 0, n),
		// rcvID/rcvIdx (bulk-delivery scratch) grow on first use: most
		// engines never install BulkRecv and should not carry the buffers.
		sleeper:  make([]Sleeper, n),
		allQuiet: true,
		dense:    g.DenseAdj(),
	}
	if n > 0 {
		e.tailMask = ^uint64(0)
		if r := n & 63; r != 0 {
			e.tailMask = uint64(1)<<uint(r) - 1
		}
	}
	for i, nd := range nodes {
		w := i >> 6
		b := uint64(1) << (uint(i) & 63)
		if s, ok := nd.(Sleeper); ok {
			e.sleeper[i] = s
			if s.Dormant() {
				e.dormw[w] |= b
			}
		}
		if q, ok := nd.(SilenceOblivious); ok && q.IgnoresSilence() {
			e.quietw[w] |= b
		} else {
			e.allQuiet = false
		}
		if m, ok := nd.(Mortal); ok {
			e.mortals = append(e.mortals, mortalRef{id: int32(i), nd: m})
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
	return e
}

// SetFaults installs the engine-side fault overlay (see FaultPlan). It
// must be called before the first Step, at most once, with a plan built
// for this engine's node count; the plan is consumed by the run (its coin
// streams advance) and must not be reused.
func (e *Engine) SetFaults(p *FaultPlan) {
	if p == nil {
		return
	}
	if p.n != len(e.Nodes) {
		panic(fmt.Sprintf("radio: fault plan for %d nodes installed in %d-node engine", p.n, len(e.Nodes)))
	}
	if e.round != 0 || e.fault != nil {
		panic("radio: SetFaults must be called once, before the first Step")
	}
	e.fault = p
	e.hasLoss = p.hasLoss
	for v, r := range p.crashAt {
		if r != NoCrash {
			e.crashSched = append(e.crashSched, crashEvent{round: r, node: int32(v)})
		}
	}
	// Ascending by round; node order within a round is irrelevant (the
	// whole prefix with round <= t is applied before anything else runs).
	slices.SortFunc(e.crashSched, func(a, b crashEvent) int {
		if a.round != b.round {
			return cmp.Compare(a.round, b.round)
		}
		return cmp.Compare(a.node, b.node)
	})
}

// Round returns the index of the next round to execute.
func (e *Engine) Round() int64 { return e.round }

// Step executes exactly one synchronous round: Act (per-node, bulk, or
// sharded bulk), jam overlay, transmit-marking into the onair/collided
// bitsets, word-parallel listener classification, and a sequential replay
// of the classified Recv calls. The classify accumulators bucket every
// listener before any protocol code runs, so the replay order is
// deliveries, then collision reports, then silence reports, each in
// ascending node id — per-listener effects are node-local (no protocol
// draws randomness or touches another node's state in Recv; loss coins
// come from per-node streams), so this order is observationally
// equivalent to the seed's interleaved pass and, crucially, independent
// of the shard count.
//
//radionet:hotpath
func (e *Engine) Step() {
	t := e.round
	e.round++
	e.Metrics.Rounds++
	if e.fault != nil {
		for e.crashCur < len(e.crashSched) && e.crashSched[e.crashCur].round <= t {
			v := e.crashSched[e.crashCur].node
			e.deadw[v>>6] |= 1 << (uint(v) & 63)
			e.anyDead = true
			e.crashCur++
		}
	}
	for _, m := range e.mortals {
		w := m.id >> 6
		b := uint64(1) << (uint(m.id) & 63)
		if e.deadw[w]&b == 0 && m.nd.Crashed(t) {
			e.deadw[w] |= b
			e.anyDead = true
		}
	}
	// txw is maintained differentially: the bits set last round are
	// exactly last round's transmit list.
	for _, u := range e.transmit {
		e.txw[u>>6] &^= 1 << (uint(u) & 63)
	}
	e.transmit = e.transmit[:0]
	e.txmsg = e.txmsg[:0]
	if e.driver != nil {
		// Driver path: the live list mirrors the per-node loop's skip of
		// dead nodes (dormant nodes are polled — the Sleeper contract
		// makes that free and silent), and the driver's ActAll contract
		// pins its output to the per-node loop's, so the two realizations
		// of the Act half cannot diverge.
		e.live = e.live[:0]
		for i := range e.Nodes {
			if e.anyDead && e.deadw[i>>6]&(1<<(uint(i)&63)) != 0 {
				continue // dead nodes are off the air
			}
			e.live = append(e.live, int32(i))
		}
		e.transmit, e.txmsg = e.driver.ActAll(t, e.live, e.transmit, e.txmsg)
		for _, u := range e.transmit {
			e.txw[u>>6] |= 1 << (uint(u) & 63)
		}
	} else if e.Bulk != nil {
		if e.shards > 1 {
			if rb, ok := e.Bulk.(BulkRangeActor); ok {
				e.rangeBulk = rb
				e.actWave()
			} else {
				e.transmit, e.txmsg = e.Bulk.ActBulk(t, e.transmit, e.txmsg)
			}
		} else {
			e.transmit, e.txmsg = e.Bulk.ActBulk(t, e.transmit, e.txmsg)
		}
		if e.anyDead {
			// Dead nodes drop off the air: the bulk path computes the whole
			// round protocol-side, so the engine masks their transmissions.
			w := 0
			for j, u := range e.transmit {
				if e.deadw[u>>6]&(1<<(uint(u)&63)) != 0 {
					continue
				}
				e.transmit[w] = u
				e.txmsg[w] = e.txmsg[j]
				w++
			}
			e.transmit = e.transmit[:w]
			e.txmsg = e.txmsg[:w]
		}
		for _, u := range e.transmit {
			e.txw[u>>6] |= 1 << (uint(u) & 63)
		}
	} else {
		for i, nd := range e.Nodes {
			w := i >> 6
			b := uint64(1) << (uint(i) & 63)
			if e.anyDead && e.deadw[w]&b != 0 {
				continue // dead nodes are off the air
			}
			if e.dormw[w]&b != 0 {
				continue // dormant nodes promise to listen
			}
			a := nd.Act(t)
			if a.Transmit {
				e.txw[w] |= b
				e.transmit = append(e.transmit, int32(i))
				e.txmsg = append(e.txmsg, a.Msg)
			}
		}
	}
	if e.fault != nil && len(e.fault.jammers) > 0 {
		e.applyJam()
	}
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
		e.markAll()
		e.sh[0].runClassify()
	}
	// Sequential replay in shard (= ascending node) order; no protocol
	// code ran before this point.
	deliveries, collisions := 0, 0
	bulkRecv := e.BulkRecv != nil
	var rid, ridx []int32
	if bulkRecv && e.shards > 1 {
		e.rcvID = e.rcvID[:0]
		e.rcvIdx = e.rcvIdx[:0]
	}
	for s := range e.sh {
		st := &e.sh[s]
		deliveries += st.deliveries
		collisions += st.collisions
		switch {
		case e.driver != nil:
			// The driver owns the nodes (they may live on other
			// goroutines); no dormancy recheck is owed because SetDriver
			// retired the dormancy skip-list.
			for k, v := range st.rcvID {
				e.driver.Observe(t, v, &e.txmsg[st.rcvIdx[k]], false)
			}
		case !bulkRecv:
			for k, v := range st.rcvID {
				e.Nodes[v].Recv(t, &e.txmsg[st.rcvIdx[k]], false)
				e.recheckDormant(v)
			}
		case e.shards > 1:
			e.rcvID = append(e.rcvID, st.rcvID...)
			e.rcvIdx = append(e.rcvIdx, st.rcvIdx...)
		default:
			rid, ridx = st.rcvID, st.rcvIdx
		}
	}
	if bulkRecv && e.shards > 1 {
		rid, ridx = e.rcvID, e.rcvIdx
	}
	if e.CollisionDetection {
		for s := range e.sh {
			for _, v := range e.sh[s].coll {
				if e.driver != nil {
					e.driver.Observe(t, v, nil, true)
					continue
				}
				e.Nodes[v].Recv(t, nil, true)
				e.recheckDormant(v)
			}
		}
	}
	for s := range e.sh {
		// Silence reports never reach dormant or quiet nodes (classify
		// masked them out), so no dormancy recheck is owed here. (Under a
		// driver the dormancy mask is retired, so dormant non-quiet nodes
		// do get the report — a no-op by their Sleeper promise.)
		for _, v := range e.sh[s].silent {
			if e.driver != nil {
				e.driver.Observe(t, v, nil, false)
				continue
			}
			e.Nodes[v].Recv(t, nil, false)
		}
	}
	if bulkRecv && len(rid) > 0 {
		e.BulkRecv.RecvBulk(t, rid, ridx, e.txmsg)
		for _, v := range rid {
			e.recheckDormant(v)
		}
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

// applyJam draws each live jammer's noise coin and, when it fires,
// replaces the node's action for the round with a KindNoise transmission
// (overriding a protocol transmission in place, or putting a listener on
// the air). Jammers are visited in ascending id order and each live jammer
// draws exactly one coin per round, matching JamNode's wrapper semantics
// coin for coin.
//
//radionet:hotpath
func (e *Engine) applyJam() {
	p := e.fault
	for _, v := range p.jammers {
		w := v >> 6
		b := uint64(1) << (uint(v) & 63)
		if e.deadw[w]&b != 0 {
			continue
		}
		if !p.jamRnd[v].Bernoulli(p.jamP[v]) {
			continue
		}
		if e.txw[w]&b != 0 {
			for j, u := range e.transmit {
				if u == v {
					e.txmsg[j] = Message{Kind: KindNoise}
					break
				}
			}
			continue
		}
		e.txw[w] |= b
		e.transmit = append(e.transmit, v)
		e.txmsg = append(e.txmsg, Message{Kind: KindNoise})
	}
}

// Run executes rounds until stop returns true or maxRounds rounds have
// been executed in this call, whichever comes first. stop is evaluated
// after each round (and once before the first, so an already-satisfied
// predicate costs zero rounds). It returns the number of rounds executed
// by this call and whether stop was satisfied; with a nil stop the
// predicate is never satisfied, so done is always false and exactly
// maxRounds rounds execute.
func (e *Engine) Run(maxRounds int64, stop func() bool) (rounds int64, done bool) {
	if stop != nil && stop() {
		return 0, true
	}
	for rounds = 0; rounds < maxRounds; {
		e.Step()
		rounds++
		if stop != nil && stop() {
			return rounds, true
		}
	}
	return rounds, false
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
// executed in this call, whichever comes first, with the same evaluation
// points as Run (once before the first round, then after every round).
// It is the fast path for protocols that track completion incrementally:
// no predicate closure is allocated and the per-round check is a counter
// comparison.
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

// TDM interleaves k sub-protocols in time-division lanes: global round t
// is lane t mod k, executing sub-round t / k of that lane. This is exactly
// how the paper runs its main and background processes "concurrently,
// alternating between steps of each".
type TDM struct {
	Lanes []Node
}

// NewTDM returns a TDM node over the given lanes.
func NewTDM(lanes ...Node) *TDM { return &TDM{Lanes: lanes} }

// Act implements Node.
func (m *TDM) Act(round int64) Action {
	k := int64(len(m.Lanes))
	return m.Lanes[round%k].Act(round / k)
}

// Recv implements Node.
func (m *TDM) Recv(round int64, msg *Message, collided bool) {
	k := int64(len(m.Lanes))
	m.Lanes[round%k].Recv(round/k, msg, collided)
}

// FuncNode adapts plain functions to the Node interface; handy in tests.
type FuncNode struct {
	ActFn  func(round int64) Action
	RecvFn func(round int64, msg *Message, collided bool)
}

// Act implements Node.
func (f *FuncNode) Act(round int64) Action {
	if f.ActFn == nil {
		return Listen
	}
	return f.ActFn(round)
}

// Recv implements Node.
func (f *FuncNode) Recv(round int64, msg *Message, collided bool) {
	if f.RecvFn != nil {
		f.RecvFn(round, msg, collided)
	}
}

var (
	_ Node = Silent{}
	_ Node = (*TDM)(nil)
	_ Node = (*FuncNode)(nil)
)
