// Word-parallel delivery kernels and intra-round sharding for Engine.Step.
//
// The round state that the seed engine kept in per-node arrays (hits,
// stamp, isTx, dead, dormant, quiet) lives here as bitsets — one bit per
// node, 64 nodes per word — so the listener pass classifies a whole word
// of nodes with a handful of ALU ops:
//
//	live = ^(txw | deadw) & tail     nodes that can listen this round
//	on   = onair & live              listeners with >= 1 transmitting neighbor
//	sing = on &^ collided            ... with exactly one  -> delivery
//	coll = on &  collided            ... with two or more  -> collision
//
// collided is maintained as a subset of onair by the marking kernels: a
// CSR transmitter sets collided where onair was already set before OR-ing
// its own bit in; a dense transmitter (degree above the graph.AdjBits
// threshold) does the same word-at-a-time with its adjacency row. A dirty
// summary bitset (one bit per engine word) records which words were
// touched, so sparse rounds scan and clear O(touched) words, not O(n/64).
//
// Sharding splits the marking pass over contiguous chunks of the transmit
// list and the classify pass over contiguous word ranges, across k
// goroutines with the round barrier as the only sync point. Shards never
// call into protocol code: they classify into private accumulators
// (counts, delivery/collision/silence lists) that the sequential replay
// step drains in shard order. Because shard ranges partition the node
// space in ascending order and every per-listener effect is node-local
// (see BulkReceiver's contract; loss coins come from per-node streams),
// Metrics, RecvBulk call contents and all protocol state are bit-exact at
// any shard count — k == 1 runs the very same classify+replay code, so
// there is no second semantics to drift from.
package radio

import (
	"fmt"
	"math/bits"
	"time"
)

// BulkRangeActor extends BulkActor with a node-range restricted variant so
// the Act half of a round can run sharded. ActBulkRange(t, lo, hi, ...)
// must append exactly the transmitters of ActBulk(t, ...) whose ids fall
// in [lo, hi), in ascending order, consuming the same per-node randomness
// — the engine concatenates the per-shard outputs in range order and the
// result must be byte-identical to the unsharded call. Protocols whose Act
// touches any cross-node state (a shared lane clock, a global counter)
// must not implement the extension; the engine then falls back to the
// sequential ActBulk even when sharding is enabled.
type BulkRangeActor interface {
	BulkActor
	// ActBulkRange appends the ids (ascending) and messages of this
	// round's transmitters with lo <= id < hi to tx and msgs.
	ActBulkRange(round int64, lo, hi int32, tx []int32, msgs []Message) ([]int32, []Message)
}

// ShardHook observes per-shard busy time when intra-round sharding is
// enabled: after each round the engine reports, for every shard that did
// work, the nanoseconds it spent inside the parallel waves. Purely
// observational (telemetry must never steer the simulation); the engine
// reads the wall clock only while a hook is installed.
type ShardHook func(shard int, busyNanos int64)

// shardState is one shard's arena: private marking bitsets (shard 0
// aliases the engine's), classify accumulators, and scratch for the
// sharded Act wave. All slices are allocated once and reused every round.
type shardState struct {
	eng *Engine
	idx int

	w0, w1 int   // classify: engine word range [w0, w1)
	lo, hi int32 // act: node range [lo, hi)
	t0, t1 int   // mark: transmit-list chunk [t0, t1), set per round

	onair    []uint64 // private marking target; aliases engine arrays for shard 0
	collided []uint64
	dirty    []uint64

	tx   []int32 // act-wave scratch
	msgs []Message

	rcvID  []int32 // classify output: delivery listeners (ascending)
	rcvIdx []int32 // txmsg index heard by each delivery listener
	coll   []int32 // collision-report listeners (collision detection only)
	silent []int32 // nothing-heard listeners owed a Recv(t, nil, false)

	deliveries int
	collisions int
	busy       int64 // accumulated busy nanos, flushed to ShardHook
}

// maxShards caps SetShards: beyond it the per-wave barrier overhead
// dwarfs any win and the shard arenas (and resident workers) waste
// memory.
const maxShards = 256

// Shards returns the configured intra-round shard count (>= 1).
func (e *Engine) Shards() int { return e.shards }

// SetShards partitions the transmit-marking and listener-classify passes
// of every subsequent Step across k goroutines: k-1 resident workers
// spawned here and parked on command channels between waves (see
// workers.go), one wave on the caller. It must be called before the first
// Step. Output is bit-exact at any k — see the package comment for the
// argument — so the knob is pure mechanical sympathy: worth it from
// roughly n >= 3*10^4 on otherwise idle cores, a small constant overhead
// below that. k is capped at the engine's word count (extra shards would
// own empty ranges) and at maxShards. The workers are released by
// Engine.Close or, failing that, by a GC cleanup once the engine is
// unreachable.
func (e *Engine) SetShards(k int) {
	if e.round != 0 {
		panic("radio: SetShards must be called before the first Step")
	}
	if k < 1 {
		panic(fmt.Sprintf("radio: shard count %d, want >= 1", k))
	}
	if k > e.words && e.words > 0 {
		k = e.words
	}
	if k > maxShards {
		k = maxShards
	}
	e.Close() // re-call: release any previous pool before resizing
	e.shards = k
	e.sh = make([]shardState, k)
	base, rem := 0, 0
	if k > 0 {
		base, rem = e.words/k, e.words%k
	}
	w := 0
	for s := range e.sh {
		st := &e.sh[s]
		st.eng = e
		st.idx = s
		span := base
		if s < rem {
			span++
		}
		st.w0, st.w1 = w, w+span
		w += span
		st.lo = int32(st.w0 << 6)
		hi := st.w1 << 6
		if hi > len(e.Nodes) {
			hi = len(e.Nodes)
		}
		st.hi = int32(hi)
		if s == 0 {
			// Shard 0 marks straight into the engine bitsets; only the
			// spawned shards need private arenas to merge from.
			st.onair, st.collided, st.dirty = e.onair, e.collided, e.dirty
		} else {
			st.onair = make([]uint64, e.words)
			st.collided = make([]uint64, e.words)
			st.dirty = make([]uint64, len(e.dirty))
		}
	}
	if k > 1 {
		e.spawnWorkers(k)
	}
}

// markAll is the unsharded marking pass: scatter every transmitter's
// neighborhood into the onair/collided bitsets, recording the heard
// message index for first-touch (CSR-marked) listeners so singleton
// resolution is O(1) on the common path.
//
//radionet:hotpath
func (e *Engine) markAll() {
	cur := e.round // Step already advanced it: cur = t+1, never zero
	st := &e.sh[0] // aliases e.onair/e.collided/e.dirty
	for j, u := range e.transmit {
		ui := int(u)
		if row := e.dense.Row(ui); row != nil {
			st.orRow(row)
			continue
		}
		for _, v := range e.G.Neighbors(ui) {
			w := int(v) >> 6
			b := uint64(1) << (uint(v) & 63)
			if st.onair[w]&b == 0 {
				st.onair[w] |= b
				st.dirty[w>>6] |= 1 << (uint(w) & 63)
				e.inbox[v] = int32(j)
				e.instamp[v] = cur
			} else {
				st.collided[w] |= b
			}
		}
	}
}

// orRow folds one dense transmitter's adjacency row into the shard's
// marking bitsets, word-at-a-time: bits already on the air collide.
//
//radionet:hotpath
func (st *shardState) orRow(row []uint64) {
	onair, collided := st.onair, st.collided
	for w, rw := range row {
		if rw == 0 {
			continue
		}
		collided[w] |= onair[w] & rw
		onair[w] |= rw
		st.dirty[w>>6] |= 1 << (uint(w) & 63)
	}
}

// runMark is the sharded marking pass over one chunk of the transmit
// list. It never fills inbox/instamp (listeners are touched by multiple
// shards); sharded singleton resolution goes through Engine.resolve.
//
//radionet:hotpath
func (st *shardState) runMark() {
	e := st.eng
	for _, u := range e.transmit[st.t0:st.t1] {
		ui := int(u)
		if row := e.dense.Row(ui); row != nil {
			st.orRow(row)
			continue
		}
		for _, v := range e.G.Neighbors(ui) {
			w := int(v) >> 6
			b := uint64(1) << (uint(v) & 63)
			st.collided[w] |= st.onair[w] & b
			st.onair[w] |= b
			st.dirty[w>>6] |= 1 << (uint(w) & 63)
		}
	}
}

// mergeMarks folds the spawned shards' private marking bitsets into the
// engine's: a node on the air in two chunks collided even if neither
// chunk saw a second transmitter. The fold is iterated over each shard's
// dirty summary, which also zeroes the private arenas for the next round.
// Merge order is fixed (ascending shard) and immaterial — union and
// pairwise-overlap accumulation commute.
//
//radionet:hotpath
func (e *Engine) mergeMarks() {
	for s := 1; s < e.shards; s++ {
		st := &e.sh[s]
		for ws, sm := range st.dirty {
			if sm == 0 {
				continue
			}
			e.dirty[ws] |= sm
			for ; sm != 0; sm &= sm - 1 {
				w := ws<<6 + bits.TrailingZeros64(sm)
				e.collided[w] |= st.collided[w] | (e.onair[w] & st.onair[w])
				e.onair[w] |= st.onair[w]
				st.onair[w] = 0
				st.collided[w] = 0
			}
			st.dirty[ws] = 0
		}
	}
}

// runClassify scans the shard's word range and buckets every listener
// into the delivery / collision-report / silence-report accumulators. No
// protocol code runs here (replay is sequential); the only mutation
// outside the shard is the per-node loss stream draw, and the word ranges
// partition nodes so no stream is shared. When every node ignores silence
// only touched (dirty) words can owe a call; otherwise the full range is
// scanned for silence reports, which is what the seed's dense pass paid
// per node.
//
//radionet:hotpath
func (st *shardState) runClassify() {
	e := st.eng
	st.deliveries, st.collisions = 0, 0
	st.rcvID = st.rcvID[:0]
	st.rcvIdx = st.rcvIdx[:0]
	st.coll = st.coll[:0]
	st.silent = st.silent[:0]
	lo, hi := st.w0, st.w1
	if lo >= hi {
		return
	}
	if e.allQuiet {
		first, last := lo>>6, (hi-1)>>6
		for ws := first; ws <= last; ws++ {
			m := e.dirty[ws]
			if ws == first {
				m &= ^uint64(0) << (uint(lo) & 63)
			}
			if ws == last && hi&63 != 0 {
				m &= uint64(1)<<(uint(hi)&63) - 1
			}
			for ; m != 0; m &= m - 1 {
				st.classifyWord(ws<<6 + bits.TrailingZeros64(m))
			}
		}
		return
	}
	for w := lo; w < hi; w++ {
		st.classifyWord(w)
	}
}

// classifyWord applies the delivery kernel to one 64-node word.
//
//radionet:hotpath
func (st *shardState) classifyWord(w int) {
	e := st.eng
	mask := ^uint64(0)
	if w == e.words-1 {
		mask = e.tailMask
	}
	ow := e.onair[w]
	live := ^(e.txw[w] | e.deadw[w]) & mask
	on := ow & live
	cw := e.collided[w]
	sing := on &^ cw
	coll := on & cw
	st.deliveries += bits.OnesCount64(sing)
	st.collisions += bits.OnesCount64(coll)
	base := int32(w << 6)
	for s := sing; s != 0; s &= s - 1 {
		v := base + int32(bits.TrailingZeros64(s))
		if e.hasLoss && e.fault.dropRecv(int(v)) {
			continue // reception faded: on the air, never delivered
		}
		st.rcvID = append(st.rcvID, v)
		st.rcvIdx = append(st.rcvIdx, e.resolve(v))
	}
	qd := e.quietw[w] | e.dormw[w]
	var silw uint64
	if e.CollisionDetection {
		// A collision report can wake a dormant node and is never a
		// silence, so every collided listener gets a Recv — quiet and
		// dormant included.
		for c := coll; c != 0; c &= c - 1 {
			st.coll = append(st.coll, base+int32(bits.TrailingZeros64(c)))
		}
	} else {
		// Without collision detection a collision IS silence: the call is
		// Recv(t, nil, false), a no-op for quiet and dormant listeners by
		// their SilenceOblivious/Sleeper promises, so only the rest fold
		// into the silence list.
		silw = coll &^ qd
	}
	if !e.allQuiet {
		silw |= live &^ ow &^ qd
	}
	for s := silw; s != 0; s &= s - 1 {
		st.silent = append(st.silent, base+int32(bits.TrailingZeros64(s)))
	}
}

// resolve returns the txmsg index of singleton listener v's unique
// transmitting neighbor. The unsharded CSR marking pass recorded it in
// inbox; otherwise (dense-marked or sharded rounds) the transmitter is
// recovered by intersecting v's neighborhood with the txw bitset — the
// first hit is the only one, and txidx maps it back to the same message
// index the inbox path would have stored.
//
//radionet:hotpath
func (e *Engine) resolve(v int32) int32 {
	if e.instamp[v] == e.round {
		return e.inbox[v]
	}
	vi := int(v)
	if row := e.dense.Row(vi); row != nil {
		for w, rw := range row {
			if h := rw & e.txw[w]; h != 0 {
				return e.txidx[w<<6+bits.TrailingZeros64(h)]
			}
		}
	}
	for _, u := range e.G.Neighbors(vi) {
		if e.txw[u>>6]&(1<<(uint(u)&63)) != 0 {
			return e.txidx[u]
		}
	}
	panic("radio: singleton listener with no transmitting neighbor") //lint:alloc unreachable invariant-violation panic, never taken on the hot path
}

// clearRound zeroes the touched marking words via the dirty summary, so
// sparse rounds clear O(touched) words instead of O(n/64).
//
//radionet:hotpath
func (e *Engine) clearRound() {
	for ws, sm := range e.dirty {
		if sm == 0 {
			continue
		}
		for ; sm != 0; sm &= sm - 1 {
			w := ws<<6 + bits.TrailingZeros64(sm)
			e.onair[w] = 0
			e.collided[w] = 0
		}
		e.dirty[ws] = 0
	}
}

// recheckDormant re-queries a dormant node's Sleeper state after a
// delivered message or collision report, clearing its dormancy bit on
// wake-up (dormancy is exited at most once).
//
//radionet:hotpath
func (e *Engine) recheckDormant(v int32) {
	w := int(v) >> 6
	b := uint64(1) << (uint(v) & 63)
	if e.dormw[w]&b != 0 && !e.sleeper[v].Dormant() {
		e.dormw[w] &^= b
	}
}

// runAct is the sharded Act wave: the shard's node range through the
// protocol's BulkRangeActor into private scratch, concatenated by the
// caller in shard order.
//
//radionet:hotpath
func (st *shardState) runAct() {
	e := st.eng
	st.tx = st.tx[:0]
	st.msgs = st.msgs[:0]
	st.tx, st.msgs = e.rangeBulk.ActBulkRange(e.round-1, st.lo, st.hi, st.tx, st.msgs)
}

// Timed wrappers: wall-clock reads are telemetry-only side channels,
// taken solely while a ShardHook is installed and pinned output-neutral
// (the hook cannot steer the engine).

func (st *shardState) timedAct() {
	if st.eng.ShardHook == nil {
		st.runAct()
		return
	}
	t0 := time.Now() //lint:wallclock shard busy telemetry, gated on ShardHook and output-neutral
	st.runAct()
	st.busy += time.Since(t0).Nanoseconds() //lint:wallclock shard busy telemetry, gated on ShardHook and output-neutral
}

func (st *shardState) timedMark() {
	if st.eng.ShardHook == nil {
		st.runMark()
		return
	}
	t0 := time.Now() //lint:wallclock shard busy telemetry, gated on ShardHook and output-neutral
	st.runMark()
	st.busy += time.Since(t0).Nanoseconds() //lint:wallclock shard busy telemetry, gated on ShardHook and output-neutral
}

func (st *shardState) timedClassify() {
	if st.eng.ShardHook == nil {
		st.runClassify()
		return
	}
	t0 := time.Now() //lint:wallclock shard busy telemetry, gated on ShardHook and output-neutral
	st.runClassify()
	st.busy += time.Since(t0).Nanoseconds() //lint:wallclock shard busy telemetry, gated on ShardHook and output-neutral
}

// Wave commands for the resident shard workers (see Engine.wave and
// shardWorker in workers.go).
const (
	cmdAct uint8 = iota
	cmdMark
	cmdClassify
)

// run dispatches one wave command on this shard.
//
//radionet:hotpath
func (st *shardState) run(cmd uint8) {
	switch cmd {
	case cmdAct:
		st.timedAct()
	case cmdMark:
		st.timedMark()
	default:
		st.timedClassify()
	}
}

// wave runs one command on every shard: shards 1..k-1 on the resident
// workers (one channel send each — the workers were spawned at SetShards
// and park between rounds, replacing the former 3·(k-1) goroutine spawns
// per round), shard 0 inline on the caller, then the WaitGroup barrier.
// A closed engine (or one whose worker pool never started) degrades to
// running every shard inline, sequentially — the identical per-shard code,
// so output cannot differ.
//
//radionet:hotpath
func (e *Engine) wave(cmd uint8) {
	if e.workerCmds == nil {
		for s := 1; s < e.shards; s++ {
			e.sh[s].run(cmd)
		}
		e.sh[0].run(cmd)
		return
	}
	e.wg.Add(e.shards - 1)
	for _, ch := range e.workerCmds {
		ch <- cmd
	}
	e.sh[0].run(cmd)
	e.wg.Wait()
}

// actWave runs the sharded Act phase and concatenates the per-shard
// transmit lists in shard (= ascending id) order.
//
//radionet:hotpath
func (e *Engine) actWave() {
	e.wave(cmdAct)
	for s := range e.sh {
		st := &e.sh[s]
		e.transmit = append(e.transmit, st.tx...)
		e.txmsg = append(e.txmsg, st.msgs...)
	}
}

// markWave runs the sharded marking phase: the transmit list is split
// into contiguous chunks, each shard scatters its chunk into its private
// bitsets (shard 0 into the engine's), and the spawned shards are merged
// sequentially afterwards.
//
//radionet:hotpath
func (e *Engine) markWave() {
	k := e.shards
	n := len(e.transmit)
	base, rem := n/k, n%k
	at := 0
	for s := 0; s < k; s++ {
		span := base
		if s < rem {
			span++
		}
		e.sh[s].t0, e.sh[s].t1 = at, at+span
		at += span
	}
	e.wave(cmdMark)
	e.mergeMarks()
}

// classifyWave runs the sharded listener-classify phase.
//
//radionet:hotpath
func (e *Engine) classifyWave() {
	e.wave(cmdClassify)
}

// flushShardBusy reports and resets the accumulated per-shard busy time.
func (e *Engine) flushShardBusy() {
	for s := range e.sh {
		if b := e.sh[s].busy; b != 0 {
			e.ShardHook(s, b)
			e.sh[s].busy = 0
		}
	}
}
