package compete

import (
	"math/bits"

	"radionet/internal/decay"
	"radionet/internal/radio"
	"radionet/internal/rng"
	"radionet/internal/schedule"
)

// bulkState is compete's radio.Protocol, over contiguous node state: one
// lane per Compete process, each holding flat per-node flood state and
// shared clocks. It exists because the per-node icpState clocks of the
// reference implementation (node_test.go) are redundant: a node's
// (fid, slot, offset) on a process is a pure function of its clock, and
// every member of a clock follows one clustering sequence whose slot
// lengths depend only on the clustering in play. The main lane keeps one
// clock per coarse cluster (every member follows the coarse center's
// sequence); the background lane (Algorithm 2: fixed β, round-robin
// clusterings) is the same lane type with every node on one clock.
//
// Engine round t runs lane (t mod 4)>>1: its Intra-Cluster Propagation
// pass on even phases and its Algorithm-4 helper on odd ones. Each lane
// keeps two flat views beside its heard bitset and flood values (see
// lane): key, every node's fine-cluster center on the clustering its
// clock is on now, rewritten only when a clock rolls over; and better,
// the nodes whose best known value beats their flood value, updated
// wherever either value changes (delivery and resetFlood). So neither a
// pass nor a delivery looks up a clock's clustering per node.
//
// A round works a 64-node word at a time and visits only the words that
// hold a node that can transmit. An ICP round reads the lane's heard
// bitset, after resetting the members of every clock that starts an
// outward sub-phase, and ANDs in the better word for clocks in the inward
// sub-phase; a helper round reads the intersection of the heard bitset
// with the lane's firing set, the nodes whose fine cluster won this Decay
// window's shared coin. The gates are exactly the reference
// implementation's, and every coin is a bit of the round's keyed word
// coins (rng.WordCoins), the same bit the reference reads per node, so
// one hash per word and step replaces a draw per node. Transmitters are
// emitted in increasing id order. RecvBulk, the only delivery routine,
// picks the round's lane once and matches each sender's center against
// the listener's key. The equivalence tests in bulk_test.go enforce
// observational identity, and checkLaneViews the lane views, after every
// round.
type bulkState struct {
	c     *Compete
	lanes [2]lane // the main process, then the background process
}

// maxSteps bounds every coin step plus one, sizing the per-word coin
// prefix arrays: a sweep step is below its ladder length and a helper
// step below l4, and both are at most 32 for int32 node ids.
const maxSteps = 64

// lane is one Compete process and its Algorithm-4 helper, which floods
// the same clustering: the process's fine clusterings and shared clocks,
// and its flat per-node state.
type lane struct {
	fines    []fine
	ladders  []ladderSet // ladders[fid] groups fines[fid]'s nodes by ladder length
	coinSeed uint64      // keys the helper's shared cluster coins
	// next returns the clustering that the clock holding node v uses in
	// slot k.
	next func(v int32, k int64) int32

	clk []laneClock
	ci  []int32 // node -> clock index
	// members lists each clock's nodes in increasing id order, CSR style:
	// clock i owns members[memberOff[i]:memberOff[i+1]].
	memberOff []int32
	members   []int32
	// wordClk lists, per 64-node word, the clocks with members in that
	// word and each one's member mask, CSR style: word w owns entries
	// wordClkOff[w]:wordClkOff[w+1].
	wordClkOff  []int32
	wordClk     []int32
	wordClkMask []uint64
	// info holds every clock's derived values for the current round.
	// levelStep backs their step tables, levelStride entries per clock.
	info        []clkInfo
	levelStep   []uint8
	levelStride int

	heard []uint64 // bitset: heard the cluster flood this slot
	flood []int64  // the flooded value
	// key[v] is v's fine-cluster center on the clustering v's clock is on
	// now, or -1 when v lies beyond that clustering's curtailment radius.
	// A delivery is in-cluster exactly when the sender's center (message
	// B, never negative) equals it. A clock rollover rewrites its nodes.
	key []int32
	// better is the bitset of nodes with globalMax[v] > flood[v]: the
	// inward sub-phase's relay gate. Deliveries (both lanes' bits, since
	// globalMax is shared) and resetFlood keep it current.
	better []uint64
	// firing holds the nodes that would pass the Algorithm-4 gates other
	// than heard: within the curtailment radius of their current fine
	// clustering, in a cluster whose coin is below this window's p.
	firing firingSet
}

// newLane builds c's lane over the clusterings fines, with one clock per
// distinct clockOf value (numbered in first-member order), the helper
// coin seed coinSeed and the slot rule next. compact is n entries of
// scratch.
func newLane(c *Compete, clockOf func(v int) int32, fines []fine, coinSeed uint64, next func(int32, int64) int32, compact []int32) lane {
	n := c.g.N()
	words := (n + 63) / 64
	ln := lane{
		fines:    fines,
		ladders:  make([]ladderSet, len(fines)),
		coinSeed: coinSeed,
		next:     next,
		ci:       make([]int32, n),
		heard:    make([]uint64, words),
		flood:    make([]int64, n),
		key:      make([]int32, n),
		better:   make([]uint64, words),
		firing:   firingSet{bits: make([]uint64, words), window: -1},
	}
	ln.firing.coin.init(n)
	for v := range ln.flood {
		ln.flood[v] = Uninformed
		if c.globalMax[v] > Uninformed {
			ln.better[v>>6] |= 1 << (v & 63)
		}
	}
	// Compact clock ids, assigned in first-member order.
	for i := range compact {
		compact[i] = -1
	}
	nclk := 0
	for v := range n {
		id := clockOf(v)
		if compact[id] < 0 {
			compact[id] = int32(nclk)
			nclk++
		}
		ln.ci[v] = compact[id]
	}
	// Member lists by counting sort on the clock index; filling in id
	// order keeps every list ascending.
	ln.memberOff = make([]int32, nclk+1)
	for _, i := range ln.ci {
		ln.memberOff[i+1]++
	}
	for i := range nclk {
		ln.memberOff[i+1] += ln.memberOff[i]
	}
	ln.members = make([]int32, n)
	fill := compact[:nclk]
	copy(fill, ln.memberOff)
	for v, i := range ln.ci {
		ln.members[fill[i]] = int32(v)
		fill[i]++
	}
	ln.clk = make([]laneClock, nclk)
	for i := range ln.clk {
		v := ln.members[ln.memberOff[i]]
		ln.clk[i] = laneClock{node: v, fid: next(v, 0)}
	}
	// Per-word clock lists, counted first so they are allocated exactly
	// (seen stamps a clock with the last word that counted it). A word's
	// clocks are few, so a linear search finds a node's entry.
	seen := compact[:nclk]
	for i := range seen {
		seen[i] = -1
	}
	ln.wordClkOff = make([]int32, words+1)
	for w := range words {
		cnt := ln.wordClkOff[w]
		for v := w << 6; v < min(n, w<<6+64); v++ {
			if i := ln.ci[v]; seen[i] != int32(w) {
				seen[i] = int32(w)
				cnt++
			}
		}
		ln.wordClkOff[w+1] = cnt
	}
	ln.wordClk = make([]int32, ln.wordClkOff[words])
	ln.wordClkMask = make([]uint64, len(ln.wordClk))
	for w := range words {
		lo, end := ln.wordClkOff[w], ln.wordClkOff[w]
		for v := w << 6; v < min(n, w<<6+64); v++ {
			k := lo
			for k < end && ln.wordClk[k] != ln.ci[v] {
				k++
			}
			if k == end {
				ln.wordClk[k] = ln.ci[v]
				end++
			}
			ln.wordClkMask[k] |= 1 << (v & 63)
		}
	}
	maxLevel := 1
	for i := range fines {
		ln.ladders[i] = newLadderSet(fines[i].sched)
		maxLevel = max(maxLevel, fines[i].sched.MaxLevel)
	}
	ln.levelStride = maxLevel + 1
	ln.info = make([]clkInfo, nclk)
	ln.levelStep = make([]uint8, nclk*ln.levelStride)
	for i := range ln.clk {
		ln.setKeys(&fines[ln.clk[i].fid], ln.clockMembers(i))
	}
	return ln
}

// clockMembers returns clock i's nodes in increasing id order.
//
//radionet:hotpath
func (ln *lane) clockMembers(i int) []int32 {
	return ln.members[ln.memberOff[i]:ln.memberOff[i+1]]
}

// setKeys rewrites key for the given nodes, all on clustering f.
//
//radionet:hotpath
func (ln *lane) setKeys(f *fine, nodes []int32) {
	center, dist := f.part.Center, f.part.Dist
	for _, v := range nodes {
		k := center[v]
		if dist[v] > f.curtail {
			k = -1
		}
		ln.key[v] = k
	}
}

// laneClock is one shared Intra-Cluster Propagation clock (cf. the
// reference's per-node icpState; heard/floodVal live in the lane's flat
// slices).
type laneClock struct {
	node     int32 // the clock's first member, whose clustering sequence it follows
	fid      int32 // index into the lane's fine set
	k        int64 // slot index
	offset   int64 // round offset within the slot
	subphase int8  // set by the lane's most recent ActBulk, pre-advance
}

// ladderSet is one fine clustering's nodes grouped by ladder length,
// word by word: word w's groups are entries off[w]:off[w+1], each a ladder
// length and the mask of the word's nodes with that ladder. A node's sweep
// step depends only on its clock and its ladder, so a coin pass handles a
// word one group at a time instead of one node at a time.
type ladderSet struct {
	off    []int32
	ladder []uint8
	mask   []uint64
}

func newLadderSet(sch *schedule.Schedule) ladderSet {
	n := len(sch.Levels)
	words := (n + 63) / 64
	ls := ladderSet{
		off:    make([]int32, words+1),
		ladder: make([]uint8, 0, 2*words),
		mask:   make([]uint64, 0, 2*words),
	}
	by := make([]uint64, sch.MaxLevel+1)
	for w := range words {
		for v := w << 6; v < min(n, w<<6+64); v++ {
			by[sch.Levels[v]] |= 1 << (v & 63)
		}
		for l, m := range by {
			if m != 0 {
				ls.ladder = append(ls.ladder, uint8(l))
				ls.mask = append(ls.mask, m)
				by[l] = 0
			}
		}
		ls.off[w+1] = int32(len(ls.ladder))
	}
	return ls
}

// clkInfo carries one clock's per-round derived values into the node pass.
type clkInfo struct {
	f        *fine
	lad      *ladderSet // f's nodes by ladder length
	boundary bool
	subphase int8
	// step[l] is the sweep step of a node with ladder length l at this
	// round's offset within the sub-phase (its coin is Bernoulli
	// 2^-(step+1)), so the node pass looks it up instead of dividing per
	// node.
	step []uint8
}

// derive returns clock cl's values for this round on clustering f,
// filling tab (one entry per ladder length 0..f.sched.MaxLevel) with the
// per-ladder sweep steps.
//
//radionet:hotpath
func derive(cl *laneClock, f *fine, lad *ladderSet, tab []uint8) clkInfo {
	off := cl.offset % f.subLen
	tab = tab[:f.sched.MaxLevel+1]
	for l := 1; l < len(tab); l++ {
		tab[l] = uint8(off % int64(l))
	}
	return clkInfo{
		f:        f,
		lad:      lad,
		boundary: cl.offset == 0 || cl.offset == 2*f.subLen,
		subphase: int8(cl.offset / f.subLen),
		step:     tab,
	}
}

// firingSet is one helper lane's bitset of nodes that may draw in the
// current Decay window, valid for window and the lane clocks' current
// fids. The window's first helper round rebuilds it; a clock rolling over
// to a new fid re-derives that clock's nodes.
type firingSet struct {
	bits   []uint64
	window int64 // the window bits were derived for; -1 = none yet
	// coin is the lane's own cache: the two lanes differ in coin seed and
	// fid space.
	coin coinCache
}

// coinCache memoizes the shared per-cluster helper coin: every member of
// a fine cluster computes the same HashFloat(coinSeed, fid, center,
// window), so the cache is keyed by fine cluster center and stamped by
// (window, fid); stale windows and clustering switches invalidate lazily.
type coinCache struct {
	coin  []float64
	stamp []uint64 // 0 = empty; otherwise 1 + window*numFine + fid
}

func (cc *coinCache) init(n int) {
	cc.coin = make([]float64, n)
	cc.stamp = make([]uint64, n)
}

// get returns HashFloat(seed, fid, center, window), computing it at most
// once per (center, fid, window).
func (cc *coinCache) get(seed uint64, numFine int, fid int32, center int32, window int64) float64 {
	key := 1 + uint64(window)*uint64(numFine) + uint64(fid)
	if cc.stamp[center] == key {
		return cc.coin[center]
	}
	v := rng.HashFloat(seed, uint64(fid), uint64(center), uint64(window))
	cc.stamp[center] = key
	cc.coin[center] = v
	return v
}

// newBulkState builds both lanes: the main lane with one clock per coarse
// cluster, each following its center's random clustering sequence, and
// the background lane with every node on one clock that cycles the
// background clusterings round-robin.
func newBulkState(c *Compete) *bulkState {
	compact := make([]int32, c.g.N())
	s := &bulkState{c: c}
	s.lanes[0] = newLane(c, func(v int) int32 { return c.coarse.Center[v] }, c.mains, c.coinMain, c.mainFid, compact)
	s.lanes[1] = newLane(c, func(int) int32 { return 0 }, c.bgs, c.coinBg,
		func(_ int32, k int64) int32 { return c.bgFid(k) }, compact)
	return s
}

// ActBulk implements radio.Protocol: one round's transmitters in
// increasing id order, mirroring cnode.Act exactly (same gates, same
// coins, same messages).
//
//radionet:hotpath
func (s *bulkState) ActBulk(t int64, tx []int32, msgs []radio.Message) ([]int32, []radio.Message) {
	cfg := &s.c.cfg
	phase := t % numLanes
	helper := phase&1 == 1
	if phase>>1 == 1 && cfg.DisableBackground || helper && cfg.DisableHelper {
		return tx, msgs
	}
	ln := &s.lanes[phase>>1]
	coins := rng.NewWordCoins(s.c.coinKey, t)
	if helper {
		return s.actHelper(coins, ln, t/numLanes, tx, msgs)
	}
	return s.actICP(coins, ln, tx, msgs)
}

// actICP runs one ICP round of the lane: derive each clock's slot
// position, reset the members of every clock that starts an outward
// sub-phase, pass over the heard nodes, then advance the clocks
// (post-pass, so a same-round Recv sees the rolled-over fid exactly as
// the reference does). A rollover rewrites the clock's keys and, within
// a Decay window, re-derives its firing bits.
//
//radionet:hotpath
func (s *bulkState) actICP(coins rng.WordCoins, ln *lane, tx []int32, msgs []radio.Message) ([]int32, []radio.Message) {
	for i := range ln.clk {
		cl := &ln.clk[i]
		info := &ln.info[i]
		*info = derive(cl, &ln.fines[cl.fid], &ln.ladders[cl.fid], ln.levelStep[i*ln.levelStride:])
		if info.boundary {
			s.resetFlood(ln.clockMembers(i), ln)
		}
	}
	tx, msgs = s.icp(coins, ln, tx, msgs)
	for i := range ln.clk {
		cl := &ln.clk[i]
		cl.subphase = ln.info[i].subphase
		cl.offset++
		if cl.offset >= ln.info[i].f.slotLen {
			cl.offset = 0
			cl.k++
			cl.fid = ln.next(cl.node, cl.k)
			members := ln.clockMembers(i)
			ln.setKeys(&ln.fines[cl.fid], members)
			if ln.firing.window >= 0 {
				s.deriveFiring(ln, cl.fid, members)
			}
		}
	}
	return tx, msgs
}

// resetFlood starts an outward sub-phase of the lane's current clustering
// for the given nodes: only the cluster centers (key[v] == v, which the
// curtailment radius always admits) hold the flood, seeded with their
// best known value, so only the others can know better.
//
//radionet:hotpath
func (s *bulkState) resetFlood(nodes []int32, ln *lane) {
	gm := s.c.globalMax
	for _, v := range nodes {
		w, bit := v>>6, uint64(1)<<(v&63)
		if ln.key[v] == v {
			ln.heard[w] |= bit
			ln.flood[v] = gm[v]
			ln.better[w] &^= bit
			continue
		}
		ln.heard[w] &^= bit
		ln.flood[v] = Uninformed
		if gm[v] > Uninformed {
			ln.better[w] |= bit
		} else {
			ln.better[w] &^= bit
		}
	}
}

// icp is one ICP round of the lane over the heard nodes, each on its
// clock's values in ln.info. A node that has not heard its cluster flood
// never transmits, so skipping it changes nothing: every per-node effect
// (gates, coin, message) is node-local. The reference's curtailment gate
// (Dist <= curtail) always passes here: a clock's members are reset
// before its first pass on a new clustering, which marks only centers
// heard, and RecvBulk marks a node heard only when the sender's center
// matches its key, which is -1 beyond the curtailment radius. So every
// heard node's key is its center.
//
// Each heard word is handled a group of nodes at a time: per clock in the
// word, its heard members pass the inward gate (in the inward sub-phase a
// node relays only strictly better knowledge: an AND with the lane's
// better word), then split by ladder length into step classes
// (addClasses). The word's coins are hashed up to the largest step in use
// and ANDed with the classes (fireMask), and the hits are emitted in
// increasing id order. A word with no gated node is never hashed. A word
// whose nodes all share one clock (every background word, and most main
// words on a grid) takes a fast path that picks the gate and the message
// values once for the word, with no clock-list walk and no per-node
// inward test.
//
//radionet:hotpath
func (s *bulkState) icp(coins rng.WordCoins, ln *lane, tx []int32, msgs []radio.Message) ([]int32, []radio.Message) {
	gm := s.c.globalMax
	var cls, p [maxSteps]uint64
	for w, heard := range ln.heard {
		if heard == 0 {
			continue
		}
		lo, hi := ln.wordClkOff[w], ln.wordClkOff[w+1]
		if hi-lo == 1 {
			info := &ln.info[ln.wordClk[lo]]
			val := ln.flood // outward sub-phases flood the cluster value
			if info.subphase == 1 {
				heard &= ln.better[w]
				val = gm
			}
			if heard == 0 {
				continue
			}
			top := info.addClasses(heard, w, &cls, -1)
			if top < 0 {
				continue
			}
			for fire := fireMask(coins, w, &cls, &p, top); fire != 0; fire &= fire - 1 {
				v := w<<6 + bits.TrailingZeros64(fire)
				tx = append(tx, int32(v))
				msgs = append(msgs, radio.Message{Kind: KindICP, A: val[v], B: int64(ln.key[v])})
			}
			continue
		}
		top := -1
		var inward uint64 // gated nodes whose clock is in the inward sub-phase
		for k := lo; k < hi; k++ {
			h := heard & ln.wordClkMask[k]
			if h == 0 {
				continue
			}
			info := &ln.info[ln.wordClk[k]]
			if info.subphase == 1 {
				h &= ln.better[w]
				inward |= h
			}
			top = info.addClasses(h, w, &cls, top)
		}
		if top < 0 {
			continue
		}
		for fire := fireMask(coins, w, &cls, &p, top); fire != 0; fire &= fire - 1 {
			b := bits.TrailingZeros64(fire)
			v := w<<6 + b
			a := ln.flood[v]
			if inward&(1<<b) != 0 {
				a = gm[v]
			}
			tx = append(tx, int32(v))
			msgs = append(msgs, radio.Message{Kind: KindICP, A: a, B: int64(ln.key[v])})
		}
	}
	return tx, msgs
}

// addClasses ORs the gated nodes h of word w into cls by sweep step, one
// ladder group at a time, and returns the largest step in use (top, if
// no group of h is larger).
//
//radionet:hotpath
func (info *clkInfo) addClasses(h uint64, w int, cls *[maxSteps]uint64, top int) int {
	ls := info.lad
	for j := ls.off[w]; j < ls.off[w+1]; j++ {
		if g := h & ls.mask[j]; g != 0 {
			st := int(info.step[ls.ladder[j]])
			cls[st%maxSteps] |= g
			top = max(top, st)
		}
	}
	return top
}

// fireMask hashes word w's coins up to step top and returns the nodes of
// cls whose coin at their class's step is a hit. It clears cls for the
// next word.
//
//radionet:hotpath
func fireMask(coins rng.WordCoins, w int, cls, p *[maxSteps]uint64, top int) uint64 {
	coins.Fill(w, p[:top+1])
	var fire uint64
	for st := range top + 1 {
		fire |= cls[st] & p[st]
		cls[st] = 0
	}
	return fire
}

// actHelper runs one Algorithm-4 helper round of the lane (cf.
// cnode.actHelper): the nodes that both heard their cluster flood and are
// in the lane's firing set for this window draw the window step's Decay
// coin, then the hits are emitted in increasing id order. Every node
// shares the step, so a word's hits are one AND with its coins at that
// step. The window's first helper round rebuilds the firing set, clock by
// clock.
//
//radionet:hotpath
func (s *bulkState) actHelper(coins rng.WordCoins, ln *lane, lt int64, tx []int32, msgs []radio.Message) ([]int32, []radio.Message) {
	l4 := int64(s.c.l4)
	window := lt / l4
	step := lt % l4
	if ln.firing.window != window {
		ln.firing.window = window
		for i := range ln.clk {
			s.deriveFiring(ln, ln.clk[i].fid, ln.clockMembers(i))
		}
	}
	var p [maxSteps]uint64
	for w, word := range ln.firing.bits {
		m := word & ln.heard[w]
		if m == 0 {
			continue
		}
		coins.Fill(w, p[:step+1])
		for fire := m & p[step]; fire != 0; fire &= fire - 1 {
			v := w<<6 + bits.TrailingZeros64(fire)
			tx = append(tx, int32(v))
			msgs = append(msgs, radio.Message{Kind: KindICP, A: ln.flood[v], B: int64(ln.key[v])})
		}
	}
	return tx, msgs
}

// deriveFiring sets the lane's firing bits for the given nodes, whose
// clock is on the lane's clustering fid, for the window in ln.firing. A
// node fires when it lies within the curtailment radius (key >= 0) and
// its cluster's shared coin HashFloat(coinSeed, fid, center, window) is
// below the window's participation probability 2^-i: cnode.actHelper's
// gates other than heard.
//
//radionet:hotpath
func (s *bulkState) deriveFiring(ln *lane, fid int32, nodes []int32) {
	fs := &ln.firing
	p := decay.Prob(int(fs.window % int64(s.c.l4))) // 2^-i, shift-clamped for large phase lengths
	for _, v := range nodes {
		bit := uint64(1) << (v & 63)
		if k := ln.key[v]; k >= 0 && fs.coin.get(ln.coinSeed, len(ln.fines), fid, k, fs.window) < p {
			fs.bits[v>>6] |= bit
		} else {
			fs.bits[v>>6] &^= bit
		}
	}
}

// RecvBulk implements radio.Protocol: the round's deliveries in one
// pass, mirroring cnode.Recv per listener. Each listener adopts a better
// value; an in-cluster sender (its center equals the listener's key on the
// round's lane) also marks the listener heard and raises its flood value,
// except in an ICP round whose listener's clock is in the inward
// sub-phase. The lane keys were already advanced by this round's ActBulk,
// exactly like the per-node reference, which advances st.fid before the
// engine delivers. A rising globalMax can set either lane's better bit; a
// rising flood value can clear the round lane's.
//
//radionet:hotpath
func (s *bulkState) RecvBulk(t int64, listeners, msgIdx []int32, msgs []radio.Message) {
	c := s.c
	gm := c.globalMax
	phase := t % numLanes
	li := phase >> 1
	ln, other := &s.lanes[li], &s.lanes[li^1]
	icp := phase&1 == 0
	for k, v := range listeners {
		msg := &msgs[msgIdx[k]]
		if msg.Kind != KindICP {
			continue
		}
		w, bit := v>>6, uint64(1)<<(v&63)
		if msg.A > gm[v] {
			gm[v] = msg.A
			if msg.A == c.trueMax {
				c.prog.Add(1)
			}
			if msg.A > ln.flood[v] {
				ln.better[w] |= bit
			}
			if msg.A > other.flood[v] {
				other.better[w] |= bit
			}
		}
		if ln.key[v] != int32(msg.B) || icp && ln.clk[ln.ci[v]].subphase == 1 {
			continue
		}
		ln.heard[w] |= bit
		if msg.A > ln.flood[v] {
			ln.flood[v] = msg.A
			if msg.A == gm[v] {
				ln.better[w] &^= bit
			}
		}
	}
}

var _ radio.Protocol = (*bulkState)(nil)
