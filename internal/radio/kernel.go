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
// summary bitset (one bit per engine word) covers every touched word, so
// the classify and clear passes scan O(touched) words, not O(n/64). The
// unsharded CSR walk flags nothing: it would be a store per neighbor
// visit into a summary of a few words, a loop-carried store-to-load
// chain. summarize rebuilds the summary after the walk instead, bit w set
// iff onair word w is nonzero, in one branch-free pass over the words.
// Every other marking flags up front and may over-flag: a dense row its
// whole word range, a band direction its output range (planBands), a
// sharded CSR walk each visit's word in its shard's private summary. So
// the summary is exact after an unsharded CSR walk and a superset
// otherwise, and a dirty word whose onair is zero classifies, merges and
// clears to nothing. A listener outside every touched word heard nothing
// and is owed no Recv call, so the one listener pass scans the dirty
// summary only.
//
// The unsharded marking pass ORs the dense rows first and stops as soon
// as every live listener has collided, that is once collided | txw |
// deadw covers every node (a saturated round). That exit is exact. A
// collided listener stays collided whatever else transmits, and
// transmitters and dead nodes never listen, so no remaining transmitter
// can change a classification. Every live listener has a collided bit,
// so its word was touched and is already in the dirty summary, and the
// classify pass counts the same collisions. The round has no singleton,
// so resolve is not called. The sharded marking pass has no
// exit: a shard's private arenas cannot see global saturation. A dense
// listener's singleton is resolved through txwords, Step's list of the
// txw words that hold a transmitter, kept only on graphs with dense
// rows.
//
// A band graph (graph.Bands: every edge {u, u+d} uses one of at most
// graph.MaxBands = 2 id differences d, as on paths, cycles and grids)
// takes a third marking path and no other; the graph selects it, never
// a flag or a per-round test. Band i's bitset B has bit u set iff
// {u, u+d} is an edge, so the listeners its transmitters T reach are
// (T & B) << d forward and (T >> d) & B backward, a shift of whole
// words. Each listener's neighbors split one to one over these 2*bands
// directions, so marking each direction's word s with collided |= onair
// & s; onair |= s counts every transmitting neighbor once, exactly as
// the CSR walk does. While marking, each direction XORs its index into
// one bit-plane per band. A singleton was reached by one direction
// only, so the planes spell that direction at its bit, and its sender
// is v - d or v + d, found through txidx without a neighbor walk. Jammed, dead and lossy nodes need nothing new: the jam overlay
// and the dead mask act on txw before marking, and classify masks dead
// listeners and draws loss coins as on every graph. Each direction's
// output words follow from the lowest and highest transmitter word, and
// planBands flags them dirty before any shard marks. The sharded pass
// splits band marking by word range and writes the engine bitsets
// directly, with no private arena and no merge.
//
// Sharding splits the marking pass over contiguous chunks of the transmit
// list (on a band graph, over word ranges) and the classify pass over
// contiguous word ranges, across k goroutines with the round barrier as
// the only sync point. Shards call into protocol code only through a
// range Act (BulkRangeActor); they classify into private accumulators
// (counts and the delivery list) that the round's one RecvBulk call
// receives in shard order. Because shard ranges partition the node
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

	"radionet/internal/graph"
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

	w0, w1 int   // classify (and band marking): engine word range [w0, w1)
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
		if s == 0 || e.bands != nil {
			// Shard 0 marks straight into the engine bitsets, and so does
			// every shard of a band graph (markBands); only the spawned
			// shards of other graphs need private arenas to merge from.
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

// mark is the unsharded marking pass. A band graph is marked by its
// band word loops alone (markBands). Otherwise dense rows go first, in
// markDense; unless they saturate the round or were all of it, markCSR
// then scatters the CSR transmitters and summarize rebuilds the dirty
// summary from onair. The order of the two kinds is immaterial: unions
// commute, and inbox is read only on a graph without dense rows.
//
//radionet:hotpath
func (e *Engine) mark() {
	if e.bands != nil {
		e.planBands()
		e.sh[0].markBands()
		return
	}
	if e.dense == nil || !e.markDense() {
		e.markCSR()
		e.summarize()
	}
}

// markCSR scatters every CSR transmitter's neighborhood into the
// onair/collided bitsets and writes the transmitter's message index into
// each neighbor's inbox entry. The walk has no branch and flags no dirty
// word (summarize does, after it): a singleton has one transmitting
// neighbor, so the last inbox write is its only one, and every other
// entry is never read. It holds no call: a call would change the CSR
// walk's register allocation, and graphs without dense rows run nothing
// else (DESIGN.md §5).
//
//radionet:hotpath
func (e *Engine) markCSR() {
	onair, collided, inbox := e.onair, e.collided, e.inbox
	for j, u := range e.transmit {
		ui := int(u)
		if e.dense.Row(ui) != nil {
			continue // marked by markDense
		}
		for _, v := range e.G.Neighbors(ui) {
			w := int(v) >> 6
			b := uint64(1) << (uint(v) & 63)
			collided[w] |= onair[w] & b
			onair[w] |= b
			inbox[v] = int32(j)
		}
	}
}

// summarize rebuilds the dirty summary from onair after the unsharded
// CSR walk: bit w is set iff onair word w is nonzero, an exact summary
// that replaces whatever markDense flagged. It reads every word once,
// with no branch and no bounds check (CI checks).
//
//radionet:hotpath
func (e *Engine) summarize() {
	onair := e.onair
	dirty := e.dirty[:(len(onair)+63)>>6]
	for ws := range dirty {
		chunk := onair[:min(64, len(onair))]
		onair = onair[len(chunk):]
		var sm uint64
		for i, x := range chunk {
			sm |= (x | -x) >> 63 << (uint(i) & 63)
		}
		dirty[ws] = sm
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
// included; every reader tolerates that superset, and summarize replaces
// it when a CSR walk follows (see the package comment). orRow must stay
// within the inlining budget (CI checks):
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
// list, or over the shard's own words on a band graph. It never fills
// inbox (listeners are touched by multiple shards, and inbox indices
// would race), so a sharded resolve walks the listener's neighbors.
//
//radionet:hotpath
func (st *shardState) runMark() {
	e := st.eng
	if e.bands != nil {
		st.markBands()
		return
	}
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

// wordSpan is a range [lo, hi) of engine words.
type wordSpan struct{ lo, hi int }

// setBands switches the engine to band marking on the graph's band layer
// b: txw moves into a padded array, and the direction bit-planes are
// allocated.
func (e *Engine) setBands(b *graph.Bands) {
	pad := b.Pad()
	e.bands = b
	e.txwPad = make([]uint64, e.words+2*pad)
	e.txw = e.txwPad[pad : pad+e.words]
	for k := range e.planes {
		e.planes[k] = make([]uint64, e.words)
	}
	for i := range b.Len() {
		d := int32(b.Diff(i))
		e.bandOff[2*i], e.bandOff[2*i+1] = -d, d
	}
}

// planBands sets the output word range of each band direction for the
// round and flags every range dirty. A transmitter in word t reaches,
// through a difference d = 64q + r, listener words t+q and t+q+1 forward
// (u -> u+d) and t-q-1 and t-q backward (u -> u-d), so the ranges follow
// from the lowest and the highest transmitter word. Direction 2i is band
// i forward, 2i+1 band i backward. The dirty summary is flagged here,
// before any shard runs, because shards share its words.
//
//radionet:hotpath
func (e *Engine) planBands() {
	e.banded++
	if len(e.transmit) == 0 {
		clear(e.spans[:])
		return
	}
	tlo, thi := e.words, -1
	if len(e.transmit) > e.words {
		// Dense round: the first and last nonempty txw words are near
		// the ends, and the scan stays within O(len(transmit)).
		for tlo = 0; e.txw[tlo] == 0; tlo++ {
		}
		for thi = e.words - 1; e.txw[thi] == 0; thi-- {
		}
	} else {
		for _, u := range e.transmit {
			w := int(u >> 6)
			tlo, thi = min(tlo, w), max(thi, w)
		}
	}
	for i := range e.bands.Len() {
		q := e.bands.Diff(i) >> 6
		e.spans[2*i] = e.flagSpan(tlo+q, thi+q+2)
		e.spans[2*i+1] = e.flagSpan(tlo-q-1, thi-q+1)
	}
}

// flagSpan clamps [lo, hi) to the engine's words, flags it in the dirty
// summary a summary word at a time, and returns it (empty when lo >= hi).
//
//radionet:hotpath
func (e *Engine) flagSpan(lo, hi int) wordSpan {
	lo, hi = max(lo, 0), min(hi, e.words)
	hi = max(hi, lo)
	for w := lo; w < hi; {
		end := min(hi, (w|63)+1)
		e.dirty[w>>6] |= (1<<uint(end-w) - 1) << (uint(w) & 63)
		w = end
	}
	return wordSpan{lo, hi}
}

// markBands is the band marking pass over the shard's words [w0, w1):
// it clears the bit-planes in use on every direction's range there (a
// one-band graph never writes plane 1), then runs each band's forward
// and backward word loop. Shards own disjoint words
// and the dirty summary is already flagged (planBands), so a sharded
// engine runs this on the engine bitsets directly, with no private arena
// and no merge.
//
//radionet:hotpath
func (st *shardState) markBands() {
	e := st.eng
	nd := 2 * e.bands.Len()
	for _, sp := range e.spans[:nd] {
		lo, hi := max(sp.lo, st.w0), min(sp.hi, st.w1)
		for k := 0; k < e.bands.Len() && lo < hi; k++ {
			clear(e.planes[k][lo:hi])
		}
	}
	for s, sp := range e.spans[:nd] {
		lo, hi := max(sp.lo, st.w0), min(sp.hi, st.w1)
		i := s >> 1
		switch {
		case lo >= hi:
		case s&1 == 0:
			e.markForward(i, e.bands.Diff(i), e.bands.Padded(i), lo, hi)
		default:
			e.markBackward(i, e.bands.Diff(i), e.bands.Padded(i), lo, hi)
		}
	}
}

// markForward marks band i's forward direction on words [lo, hi), where
// d is the band's difference and band its padded bitset: a
// transmitter u with edge {u, u+d} reaches u+d, so the listener word w
// is the band-masked transmitter words w-q and w-q-1 shifted up by d =
// 64q + r. As in orRow, bits already on the air collide. The direction's
// index 2i is XOR-ed into the bit-planes (plane 0 holds the backward
// bit, so a forward direction leaves it alone). The word loop has no
// bounds check (CI checks); the plane branch is loop-invariant.
//
//radionet:hotpath
func (e *Engine) markForward(i, d int, band []uint64, lo, hi int) {
	pad := e.bands.Pad()
	q, r := d>>6, uint(d)&63
	onair := e.onair[lo:hi]
	collided := e.collided[lo:hi][:len(onair)]
	t0, b0 := e.txwPad[pad+lo-q:][:len(onair)], band[pad+lo-q:][:len(onair)]
	t1, b1 := e.txwPad[pad+lo-q-1:][:len(onair)], band[pad+lo-q-1:][:len(onair)]
	p1 := e.planes[1][lo:hi][:len(onair)]
	x1 := i == 1
	for j := range onair {
		s := (t0[j]&b0[j])<<r | (t1[j]&b1[j])>>(64-r)
		collided[j] |= onair[j] & s
		onair[j] |= s
		if x1 {
			p1[j] ^= s
		}
	}
}

// markBackward marks band i's backward direction on words [lo, hi): a
// transmitter u+d with edge {u, u+d} reaches u, so the listener word w
// is the transmitter words w+q and w+q+1 shifted down by d and masked by
// the band's word w. Its index 2i+1 is XOR-ed into the bit-planes. The
// word loop has no bounds check (CI checks).
//
//radionet:hotpath
func (e *Engine) markBackward(i, d int, band []uint64, lo, hi int) {
	pad := e.bands.Pad()
	q, r := d>>6, uint(d)&63
	onair := e.onair[lo:hi]
	collided := e.collided[lo:hi][:len(onair)]
	bw := band[pad+lo:][:len(onair)]
	t0, t1 := e.txwPad[pad+lo+q:][:len(onair)], e.txwPad[pad+lo+q+1:][:len(onair)]
	p0, p1 := e.planes[0][lo:hi][:len(onair)], e.planes[1][lo:hi][:len(onair)]
	x1 := i == 1
	for j := range onair {
		s := bw[j] & (t0[j]>>r | t1[j]<<(64-r))
		collided[j] |= onair[j] & s
		onair[j] |= s
		p0[j] ^= s
		if x1 {
			p1[j] ^= s
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
	if e.bands != nil {
		st.deliverBand(w, sing)
		return
	}
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

// deliverBand is classifyWord's delivery loop on a band graph. Each
// singleton listener v in word w was reached by exactly one band
// direction, whose index the bit-planes hold at v; bandOff turns it into
// the sender's offset, v - d forward or v + d backward, and txidx into
// its message index. The word's plane words are loaded once.
//
//radionet:hotpath
func (st *shardState) deliverBand(w int, sing uint64) {
	e := st.eng
	p0, p1 := e.planes[0][w], e.planes[1][w]
	base := int32(w << 6)
	for s := sing; s != 0; s &= s - 1 {
		b := uint(bits.TrailingZeros64(s))
		v := base + int32(b)
		if e.hasLoss && e.fault.dropRecv(int(v)) {
			continue // reception faded: on the air, never delivered
		}
		c := p0>>b&1 | p1>>b&1<<1
		st.rcvID = append(st.rcvID, v)
		st.rcvIdx = append(st.rcvIdx, e.txidx[v+e.bandOff[c&3]])
	}
}

// resolve returns the txmsg index of singleton listener v's unique
// transmitting neighbor on a graph without bands (a band graph's
// singletons are resolved by deliverBand). On an unsharded engine without
// dense rows, markCSR walked every transmitter and so wrote inbox[v]
// this round, last and only for v's one transmitting neighbor. Elsewhere
// inbox may hold an earlier round's index: a dense transmitter writes
// none, and the sharded pass none at all. There the transmitter is
// recovered by intersecting v's neighborhood with the txw bitset — the
// first hit is the only one, and txidx maps it back to its message
// index. A dense row is intersected only on txwords, the words that hold
// a transmitter: the unique hit is the same in any word order.
//
//radionet:hotpath
func (e *Engine) resolve(v int32) int32 {
	if e.dense == nil && e.shards == 1 {
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
// sequentially afterwards. A band graph is split by word range instead:
// each shard runs the band word loops over its own words of the engine
// bitsets, so there is nothing to merge.
//
//radionet:hotpath
func (e *Engine) markWave() {
	if e.bands != nil {
		e.planBands()
		e.wave(cmdMark)
		return
	}
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
