// Word-parallel delivery kernels and intra-round sharding for Engine.Step.
//
// The round state that the seed engine kept in per-node arrays (hits,
// stamp, isTx, dead) lives here as bitsets — one bit per node, 64 nodes
// per word — so the listener pass classifies a whole word of nodes with a
// handful of ALU ops:
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
// summary bitset (one bit per engine word) covers every touched word — a
// CSR mark flags its own word, a dense row flags its whole word range at
// once, so the summary is a superset — and sparse rounds scan and clear
// O(touched) words, not O(n/64). A dirty word whose onair is zero
// classifies, merges and clears to nothing. A listener outside every
// touched word heard nothing and is owed no Recv call, so the one
// listener pass scans the dirty summary only.
//
// The unsharded marking pass ORs the dense rows first and stops as soon
// as every live listener has collided, that is once collided | txw |
// deadw covers every node (a saturated round). That exit is exact. A
// collided listener stays collided whatever else transmits, and
// transmitters and dead nodes never listen, so no remaining transmitter
// can change a classification. Every live listener has a collided bit,
// so its word was touched and is already in the dirty summary, and the
// classify pass counts the same collisions. The round has no singleton,
// so neither inbox nor resolve is read. The sharded marking pass has no
// exit: a shard's private arenas cannot see global saturation. A dense
// listener's singleton is resolved through txwords, Step's list of the
// txw words that hold a transmitter, kept only on graphs with dense
// rows.
//
// Sharding splits the marking pass over contiguous chunks of the transmit
// list and the classify pass over contiguous word ranges, across k
// goroutines with the round barrier as the only sync point. Shards call
// into protocol code only through a range Act (BulkRangeActor); they
// classify into private accumulators (counts and the delivery list) that
// the round's one RecvBulk call receives in shard order. Because shard ranges partition the node
// space in ascending order and every per-listener effect is node-local
// (see Protocol.RecvBulk; loss coins come from per-node streams),
// Metrics, RecvBulk call contents and all protocol state are bit-exact at
// any shard count — k == 1 runs the very same classify+delivery code, so
// there is no second semantics to drift from.
package radio

import (
	"fmt"
	"math/bits"
	"time"
)

// BulkRangeActor is the optional range extension of a Protocol, the
// engine's only hook for running the Act half of a round sharded.
// ActBulkRange(t, lo, hi, ...) must append exactly the transmitters of
// ActBulk(t, ...) whose ids fall in [lo, hi), in ascending order,
// consuming the same per-node randomness — the engine concatenates the
// per-shard outputs in range order and the result must be byte-identical
// to the unsharded call. Protocols whose Act touches any cross-node state
// (a shared lane clock, a global counter) must not implement the
// extension; the engine then calls the sequential ActBulk even when
// sharding is enabled. SetShards resolves it once.
type BulkRangeActor interface {
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

	deliveries int
	collisions int
	busy       int64 // accumulated busy nanos, flushed to ShardHook
}

// maxShards caps SetShards: beyond it the per-wave barrier overhead
// dwarfs any win and the shard arenas (and resident workers) waste
// memory.
const maxShards = 256

// ShardCount returns the shard count SetShards(k) runs on an n-node
// engine: k capped at the bitset word count ⌈n/64⌉ (extra shards would own
// empty ranges) and at maxShards.
func ShardCount(n, k int) int {
	if words := (n + 63) / 64; words > 0 {
		k = min(k, words)
	}
	return min(k, maxShards)
}

// SetShards partitions the transmit-marking and listener-classify passes
// of every subsequent Step, and its Act when the protocol implements
// BulkRangeActor, across k goroutines: k-1 resident workers
// spawned here and parked on command channels between waves (see
// workers.go), one wave on the caller. It must be called before the first
// Step. Output is bit-exact at any k — see the package comment for the
// argument — so the knob is pure mechanical sympathy: worth it from
// roughly n >= 3*10^4 on otherwise idle cores, a small constant overhead
// below that. k is capped as ShardCount says. The workers are released by
// Engine.Close or, failing that, by a GC cleanup once the engine is
// unreachable.
func (e *Engine) SetShards(k int) {
	if e.round != 0 {
		panic("radio: SetShards must be called before the first Step")
	}
	if k < 1 {
		panic(fmt.Sprintf("radio: shard count %d, want >= 1", k))
	}
	k = ShardCount(e.G.N(), k)
	e.Close() // re-call: release any previous pool before resizing
	e.shards = k
	e.sh = make([]shardState, k)
	base, rem := e.words/k, e.words%k
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
		if hi > e.G.N() {
			hi = e.G.N()
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
	e.rangeAct = nil
	if k > 1 {
		e.rangeAct, _ = e.proto.(BulkRangeActor)
		e.spawnWorkers(k)
	}
}

// mark is the unsharded marking pass. Dense rows go first, in
// markDense; unless they saturate the round or were all of it, markCSR
// then scatters the CSR transmitters. The order of the two kinds is
// immaterial: unions commute, and inbox is read only for a singleton,
// whose one transmitter is its only first touch.
//
//radionet:hotpath
func (e *Engine) mark() {
	if e.dense == nil || !e.markDense() {
		e.markCSR()
	}
}

// markCSR scatters every CSR transmitter's neighborhood into the
// onair/collided bitsets, recording the heard message index for
// first-touch listeners so singleton resolution is O(1) on the common
// path. It holds no call: a call would change the CSR walk's register
// allocation, and graphs without dense rows run nothing else (DESIGN.md
// §5).
//
//radionet:hotpath
func (e *Engine) markCSR() {
	cur := e.round // Step already advanced it: cur = t+1, never zero
	st := &e.sh[0] // aliases e.onair/e.collided/e.dirty
	for j, u := range e.transmit {
		ui := int(u)
		if e.dense.Row(ui) != nil {
			continue // marked by markDense
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

// markDense ORs the dense transmitters' rows into the marking bitsets
// and reports whether that completes the round's marking: the round
// saturated, every live listener collided, so no other transmitter can
// change a classification (see the package comment); or every
// transmitter has a dense row. It stops at the row that saturates. open
// is the first word that may still hold an uncollided live listener;
// collided only grows within the round, so the checks of a round scan
// each word about once.
//
//radionet:hotpath
func (e *Engine) markDense() bool {
	st := &e.sh[0]
	open, rows := 0, 0
	for _, u := range e.transmit {
		if row := e.dense.Row(int(u)); row != nil {
			st.orRow(row)
			rows++
			if open = e.firstOpen(open); open == e.words {
				e.saturated++
				return true
			}
		}
	}
	return rows == len(e.transmit)
}

// orRow folds one dense transmitter's adjacency row into the shard's
// marking bitsets, word-at-a-time: bits already on the air collide. The
// word loop has no branch, no bounds check (CI checks) and no store that
// a later iteration reloads, so iterations overlap. Flagging dirty per
// word would break that: up to 64 consecutive words share one summary
// word, a store-to-load chain through the whole row. So the row's whole
// word range is flagged dirty once, up front, zero words of the row
// included; every reader tolerates that superset (see the package
// comment). orRow must stay within the inlining budget (CI checks):
// runMark's CSR walk shares its loop, and an out-of-line call there
// changes that walk's register allocation (DESIGN.md §5).
//
//radionet:hotpath
func (st *shardState) orRow(row []uint64) {
	dirty := st.dirty[:(len(row)+63)>>6]
	for ws := range dirty {
		dirty[ws] = 1<<min(uint(len(row)-ws<<6), 64) - 1 // all ones but in the tail word
	}
	onair, collided := st.onair[:len(row)], st.collided[:len(row)]
	for w, rw := range row {
		collided[w] |= onair[w] & rw
		onair[w] |= rw
	}
}

// firstOpen returns the first word at or after from that holds a live
// listener outside collided, or e.words when every live listener has
// collided. Bits past n are never set, so the tail word is covered once
// its padding is. The function has no bounds check (CI checks).
//
//radionet:hotpath
func (e *Engine) firstOpen(from int) int {
	coll := e.collided[from:]
	txw, deadw := e.txw[from:][:len(coll)], e.deadw[from:][:len(coll)]
	for i, c := range coll {
		if m := c | txw[i] | deadw[i]; m != ^uint64(0) && (i+1 < len(coll) || m|^e.tailMask != ^uint64(0)) {
			return from + i
		}
	}
	return e.words
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

// runClassify scans the dirty words of the shard's word range, counts
// their collided listeners and buckets their singleton listeners into the
// delivery accumulators; an untouched word holds no listener that heard
// anything.
// No protocol code runs here (replay is sequential); the only mutation
// outside the shard is the per-node loss stream draw, and the word ranges
// partition nodes so no stream is shared.
//
//radionet:hotpath
func (st *shardState) runClassify() {
	e := st.eng
	st.deliveries, st.collisions = 0, 0
	st.rcvID = st.rcvID[:0]
	st.rcvIdx = st.rcvIdx[:0]
	lo, hi := st.w0, st.w1
	if lo >= hi {
		return
	}
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
}

// classifyWord applies the delivery kernel to one 64-node word: singleton
// listeners join the delivery list, and a collided listener is only
// counted; it heard nothing.
//
//radionet:hotpath
func (st *shardState) classifyWord(w int) {
	e := st.eng
	mask := ^uint64(0)
	if w == e.words-1 {
		mask = e.tailMask
	}
	live := ^(e.txw[w] | e.deadw[w]) & mask
	on := e.onair[w] & live
	cw := e.collided[w]
	sing := on &^ cw
	st.deliveries += bits.OnesCount64(sing)
	st.collisions += bits.OnesCount64(on & cw)
	base := int32(w << 6)
	for s := sing; s != 0; s &= s - 1 {
		v := base + int32(bits.TrailingZeros64(s))
		if e.hasLoss && e.fault.dropRecv(int(v)) {
			continue // reception faded: on the air, never delivered
		}
		st.rcvID = append(st.rcvID, v)
		st.rcvIdx = append(st.rcvIdx, e.resolve(v))
	}
}

// resolve returns the txmsg index of singleton listener v's unique
// transmitting neighbor. The unsharded CSR marking pass recorded it in
// inbox; otherwise (dense-marked or sharded rounds) the transmitter is
// recovered by intersecting v's neighborhood with the txw bitset — the
// first hit is the only one, and txidx maps it back to the same message
// index the inbox path would have stored. A dense row is intersected
// only on txwords, the words that hold a transmitter: the unique hit is
// the same in any word order.
//
//radionet:hotpath
func (e *Engine) resolve(v int32) int32 {
	if e.instamp[v] == e.round {
		return e.inbox[v]
	}
	vi := int(v)
	if row := e.dense.Row(vi); row != nil {
		txw := e.txw
		for _, w := range e.txwords {
			if h := row[w] & txw[w]; h != 0 {
				return e.txidx[int(w)<<6+bits.TrailingZeros64(h)]
			}
		}
	} else {
		for _, u := range e.G.Neighbors(vi) {
			if e.txw[u>>6]&(1<<(uint(u)&63)) != 0 {
				return e.txidx[u]
			}
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

// runAct is the sharded Act wave: the shard's node range through the
// protocol's range Act into private scratch, concatenated by the caller
// in shard order.
//
//radionet:hotpath
func (st *shardState) runAct() {
	e := st.eng
	st.tx = st.tx[:0]
	st.msgs = st.msgs[:0]
	st.tx, st.msgs = e.rangeAct.ActBulkRange(e.round-1, st.lo, st.hi, st.tx, st.msgs)
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
