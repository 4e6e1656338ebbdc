package compete

import (
	"math"
	"math/bits"

	"radionet/internal/decay"
	"radionet/internal/radio"
	"radionet/internal/rng"
)

// bulkState is the contiguous fast-path node state behind the engine's
// BulkActor/BulkReceiver seams: flat per-node slices for the lane-local
// flood state, plus shared lane clocks. It exists because the per-node
// icpState clocks of the reference implementation are redundant — a node's
// main-lane (fid, slot, offset) is a pure function of its coarse cluster
// (every member follows the coarse center's clustering sequence, and slot
// lengths depend only on the fine clustering in play), and the background
// lane's clock is global (round-robin fids, shared slot lengths). The bulk
// path therefore keeps one clock per coarse cluster plus one background
// clock.
//
// A round visits only the nodes that can draw a coin. An ICP round walks
// the set bits of the lane's heard bitset, after resetting the members of
// every clock that starts an outward sub-phase; a helper round walks the
// intersection of the heard bitset with the lane's firing set, the nodes
// whose fine cluster won this Decay window's shared coin. Both walks run
// in increasing id order and draw per-node randomness under exactly the
// reference implementation's gates — observational identity is enforced
// by the equivalence tests in bulk_test.go. Each 64-node word is walked
// twice: a draw pass collects the coin outcomes in a bit mask without
// branching on them, then an emit pass appends the transmitters.
type bulkState struct {
	c     *Compete
	shims []bnode

	ci      []int32     // node -> main-lane clock index (compact coarse id)
	mainClk []laneClock // one main-lane clock per coarse cluster
	bgClk   laneClock   // the global background-lane clock
	// members lists each main clock's nodes in increasing id order, CSR
	// style: clock i owns members[memberOff[i]:memberOff[i+1]].
	memberOff []int32
	members   []int32

	mainHeard []uint64 // main lane bitset: heard the cluster flood this slot
	mainFlood []int64  // main lane: the flooded value
	bgHeard   []uint64 // background lane bitset: heard the cluster flood this slot
	bgFlood   []int64  // background lane: the flooded value

	// Per helper lane, the nodes that would pass the Algorithm-4 gates
	// other than heard: within the curtailment radius of their current
	// fine clustering, in a cluster whose coin is below this window's p.
	mainFiring firingSet
	bgFiring   firingSet

	// thr[s] is the integer Bernoulli threshold for the schedule sweep
	// probability 2^-(s+1): rnd.Uint64()>>11 < thr[s] is the same draw and
	// outcome as rnd.Bernoulli(schedule.Prob(level, t)) at s = t%level.
	thr []uint64
	// helperThr is the same table for the Algorithm-4 decay steps.
	helperThr []uint64

	// scratch holds every clock's derived values for the current round:
	// one entry per main clock, then the background clock's. levelThr
	// backs their thr tables, levelStride entries per clock in the same
	// order.
	scratch     []clkInfo
	levelThr    []uint64
	levelStride int
}

// laneClock is one shared Intra-Cluster Propagation clock (see icpState;
// the per-node heard/floodVal live in the bulkState flat slices).
type laneClock struct {
	center   int32 // owning coarse center (main clocks; unused for bg)
	fid      int32 // index into the lane's fine set
	k        int64 // slot index
	offset   int64 // round offset within the slot
	subphase int8  // set by the lane's most recent ActBulk, pre-advance
}

// clkInfo carries one clock's per-round derived values into the node pass.
type clkInfo struct {
	f        *fine
	boundary bool
	subphase int8
	// thr[l] is the sweep threshold of a node with ladder length l at this
	// round's offset within the sub-phase, so the node pass looks it up
	// instead of dividing per node.
	thr []uint64
}

// derive returns clock cl's values for this round on clustering f,
// filling tab (one entry per ladder length 0..f.sched.MaxLevel) with the
// per-ladder sweep thresholds.
//
//radionet:hotpath
func (s *bulkState) derive(cl *laneClock, f *fine, tab []uint64) clkInfo {
	step := cl.offset % f.subLen
	tab = tab[:f.sched.MaxLevel+1]
	for l := 1; l < len(tab); l++ {
		tab[l] = s.thr[step%int64(l)]
	}
	return clkInfo{
		f:        f,
		boundary: cl.offset == 0 || cl.offset == 2*f.subLen,
		subphase: int8(cl.offset / f.subLen),
		thr:      tab,
	}
}

// firingSet is one helper lane's bitset of nodes that may draw in the
// current Decay window, valid for window and the lane clocks' current
// fids. The window's first helper round rebuilds it; a clock rolling over
// to a new fid re-derives that clock's nodes.
type firingSet struct {
	bits   []uint64
	window int64 // the window bits were derived for; -1 = none yet
	// coin is the lane's own cache: the two helper lanes differ in coin
	// seed and fid space.
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

func newBulkState(c *Compete) *bulkState {
	n := c.g.N()
	words := (n + 63) / 64
	s := &bulkState{
		c:         c,
		ci:        make([]int32, n),
		mainHeard: make([]uint64, words),
		mainFlood: make([]int64, n),
		bgHeard:   make([]uint64, words),
		bgFlood:   make([]int64, n),
	}
	// Compact clock ids per coarse cluster, assigned in first-member order.
	compact := make([]int32, n)
	for i := range compact {
		compact[i] = -1
	}
	for v := 0; v < n; v++ {
		ctr := c.coarse.Center[v]
		if compact[ctr] < 0 {
			compact[ctr] = int32(len(s.mainClk))
			s.mainClk = append(s.mainClk, laneClock{center: ctr, fid: c.mainFid(ctr, 0)})
		}
		s.ci[v] = compact[ctr]
	}
	// Member lists by counting sort on the clock index; filling in id
	// order keeps every list ascending.
	s.memberOff = make([]int32, len(s.mainClk)+1)
	for _, i := range s.ci {
		s.memberOff[i+1]++
	}
	for i := range s.mainClk {
		s.memberOff[i+1] += s.memberOff[i]
	}
	s.members = make([]int32, n)
	fill := append([]int32(nil), s.memberOff[:len(s.mainClk)]...)
	for v, i := range s.ci {
		s.members[fill[i]] = int32(v)
		fill[i]++
	}
	s.scratch = make([]clkInfo, len(s.mainClk)+1)
	maxLevel := 1
	for i := range c.mains {
		if l := c.mains[i].sched.MaxLevel; l > maxLevel {
			maxLevel = l
		}
	}
	for i := range c.bgs {
		if l := c.bgs[i].sched.MaxLevel; l > maxLevel {
			maxLevel = l
		}
	}
	s.thr = make([]uint64, maxLevel)
	for i := range s.thr {
		// 2^-(i+1) and 2^53 are exact powers of two, so the integer test
		// (Uint64>>11) < ceil(p*2^53) equals Float64() < p — same draw,
		// same outcome as the reference rnd.Bernoulli (cf. decay's table).
		s.thr[i] = uint64(math.Ceil(math.Ldexp(1, -(i+1)) * (1 << 53)))
	}
	s.levelStride = maxLevel + 1
	s.levelThr = make([]uint64, len(s.scratch)*s.levelStride)
	s.helperThr = make([]uint64, c.l4)
	for i := range s.helperThr {
		s.helperThr[i] = uint64(math.Ceil(decay.Prob(i) * (1 << 53)))
	}
	for _, fs := range []*firingSet{&s.mainFiring, &s.bgFiring} {
		fs.bits = make([]uint64, words)
		fs.window = -1
		fs.coin.init(n)
	}
	s.shims = make([]bnode, n)
	for v := range s.shims {
		s.shims[v] = bnode{s: s, id: int32(v)}
	}
	return s
}

// ActBulk implements radio.BulkActor: one round's transmitters in
// increasing id order, mirroring cnode.Act exactly (same gates, same RNG
// draws per node, same messages).
//
//radionet:hotpath
func (s *bulkState) ActBulk(t int64, tx []int32, msgs []radio.Message) ([]int32, []radio.Message) {
	cfg := &s.c.cfg
	lane := t % numLanes
	lt := t / numLanes
	switch lane {
	case laneMain:
		return s.actMain(tx, msgs)
	case laneHelper:
		if cfg.DisableHelper {
			return tx, msgs
		}
		return s.actHelper(true, lt, tx, msgs)
	case laneBg:
		if cfg.DisableBackground {
			return tx, msgs
		}
		return s.actBg(tx, msgs)
	default:
		if cfg.DisableBackground || cfg.DisableHelper {
			return tx, msgs
		}
		return s.actHelper(false, lt, tx, msgs)
	}
}

// clockMembers returns main clock i's nodes in increasing id order.
//
//radionet:hotpath
func (s *bulkState) clockMembers(i int) []int32 {
	return s.members[s.memberOff[i]:s.memberOff[i+1]]
}

// actMain runs one main-lane ICP round: derive each coarse clock's slot
// position, reset the members of every clock that starts an outward
// sub-phase, pass over the heard nodes, then advance the clocks (post-pass,
// so a same-round Recv sees the rolled-over fid exactly as the reference
// does).
//
//radionet:hotpath
func (s *bulkState) actMain(tx []int32, msgs []radio.Message) ([]int32, []radio.Message) {
	c := s.c
	for i := range s.mainClk {
		cl := &s.mainClk[i]
		f := &c.mains[cl.fid]
		info := &s.scratch[i]
		*info = s.derive(cl, f, s.levelThr[i*s.levelStride:])
		if info.boundary {
			s.resetFlood(f, s.clockMembers(i), s.mainHeard, s.mainFlood)
		}
	}
	tx, msgs = s.icpMain(tx, msgs)
	for i := range s.mainClk {
		cl := &s.mainClk[i]
		cl.subphase = s.scratch[i].subphase
		cl.offset++
		if cl.offset >= s.scratch[i].f.slotLen {
			cl.offset = 0
			cl.k++
			cl.fid = c.mainFid(cl.center, cl.k)
			if fs := &s.mainFiring; fs.window >= 0 {
				s.deriveFiring(fs, c.mains, cl.fid, c.coinMain, s.clockMembers(i))
			}
		}
	}
	return tx, msgs
}

// actBg is actMain for the background lane's single global clock. A
// rollover invalidates the background firing set, which every node
// shares a fid in; the next helper round rebuilds it.
//
//radionet:hotpath
func (s *bulkState) actBg(tx []int32, msgs []radio.Message) ([]int32, []radio.Message) {
	c := s.c
	cl := &s.bgClk
	f := &c.bgs[cl.fid]
	bg := len(s.mainClk)
	info := &s.scratch[bg]
	*info = s.derive(cl, f, s.levelThr[bg*s.levelStride:])
	if info.boundary {
		s.resetFlood(f, s.members, s.bgHeard, s.bgFlood)
	}
	tx, msgs = s.icpBg(info, tx, msgs)
	cl.subphase = info.subphase
	cl.offset++
	if cl.offset >= f.slotLen {
		cl.offset = 0
		cl.k++
		cl.fid = c.bgFid(cl.k)
		s.bgFiring.window = -1
	}
	return tx, msgs
}

// resetFlood starts an outward sub-phase of clustering f for the given
// nodes (s.members for every node): only the cluster centers hold the
// flood, seeded with their best known value.
//
//radionet:hotpath
func (s *bulkState) resetFlood(f *fine, nodes []int32, heard []uint64, flood []int64) {
	gm := s.c.globalMax
	center := f.part.Center
	for _, v := range nodes {
		bit := uint64(1) << (v & 63)
		if center[v] == v {
			heard[v>>6] |= bit
			flood[v] = gm[v]
		} else {
			heard[v>>6] &^= bit
			flood[v] = Uninformed
		}
	}
}

// coin draws one coin from r against the integer threshold thr (see
// bulkState.thr) and returns the outcome as a bit, 1 for a hit. The draw
// Uint64>>11 is below 2^53 and thr is at most 2^53, so the sign bit of
// their difference is the comparison: no branch on the outcome.
//
//radionet:hotpath
func coin(r *rng.Rand, thr uint64) uint64 {
	return (r.Uint64()>>11 - thr) >> 63
}

// icpMain is the per-node pass of one main-lane ICP round over the heard
// nodes, each on its coarse clock's values in s.scratch. A node that has
// not heard its cluster flood never transmits, so skipping it changes
// nothing: every per-node effect (gates, RNG draw, message) is node-local.
// The reference's curtailment gate (Dist <= curtail) always passes here: a
// clock's members are reset before its first pass on a new clustering,
// which marks only centers heard, and recvOne marks a node heard only
// within the curtailment radius of the clustering its clock is on.
//
// Each heard word is handled in two passes. The draw pass gives every node
// that passes the gates its coin, collecting the hits in a word-local fire
// mask without branching on them; the emit pass then appends the hits in
// increasing id order. Streams advance exactly as in the reference, which
// draws under the same gates.
//
//radionet:hotpath
func (s *bulkState) icpMain(tx []int32, msgs []radio.Message) ([]int32, []radio.Message) {
	c := s.c
	gm, flood, ci, clks := c.globalMax, s.mainFlood, s.ci, s.scratch
	for w, word := range s.mainHeard {
		var fire uint64
		for m := word; m != 0; m &= m - 1 {
			b := bits.TrailingZeros64(m)
			v := w<<6 + b
			info := &clks[ci[v]]
			// Inward sub-phase: relay only strictly better knowledge.
			if info.subphase == 1 && gm[v] <= flood[v] {
				continue
			}
			fire |= coin(&c.rnd[v], info.thr[info.f.sched.Levels[v]]) << b
		}
		for ; fire != 0; fire &= fire - 1 {
			v := w<<6 + bits.TrailingZeros64(fire)
			info := &clks[ci[v]]
			a := flood[v] // outward sub-phases flood the cluster value
			if info.subphase == 1 {
				a = gm[v]
			}
			tx = append(tx, int32(v))
			msgs = append(msgs, radio.Message{Kind: KindICP, A: a, B: int64(info.f.part.Center[v])})
		}
	}
	return tx, msgs
}

// icpBg is icpMain for the background lane, whose nodes all share the
// clock values in info: the threshold table, ladder lengths, centers and
// the inward flag are read once per round rather than once per node.
//
//radionet:hotpath
func (s *bulkState) icpBg(info *clkInfo, tx []int32, msgs []radio.Message) ([]int32, []radio.Message) {
	c := s.c
	gm, flood := c.globalMax, s.bgFlood
	thr, levels, center := info.thr, info.f.sched.Levels, info.f.part.Center
	inward := info.subphase == 1
	val := flood // outward sub-phases flood the cluster value
	if inward {
		val = gm
	}
	for w, word := range s.bgHeard {
		var fire uint64
		for m := word; m != 0; m &= m - 1 {
			b := bits.TrailingZeros64(m)
			v := w<<6 + b
			// Inward sub-phase: relay only strictly better knowledge.
			if inward && gm[v] <= flood[v] {
				continue
			}
			fire |= coin(&c.rnd[v], thr[levels[v]]) << b
		}
		for ; fire != 0; fire &= fire - 1 {
			v := w<<6 + bits.TrailingZeros64(fire)
			tx = append(tx, int32(v))
			msgs = append(msgs, radio.Message{Kind: KindICP, A: val[v], B: int64(center[v])})
		}
	}
	return tx, msgs
}

// actHelper runs one Algorithm-4 helper round for the main or background
// companion lane (cf. cnode.actHelper): the nodes that both heard their
// cluster flood and are in the lane's firing set for this window draw the
// window step's Decay coin, then the hits are emitted in increasing id
// order (the draw/emit split of icpMain).
//
//radionet:hotpath
func (s *bulkState) actHelper(isMain bool, lt int64, tx []int32, msgs []radio.Message) ([]int32, []radio.Message) {
	c := s.c
	l4 := int64(c.l4)
	window := lt / l4
	thr := s.helperThr[lt%l4]
	fs, heard, flood := &s.mainFiring, s.mainHeard, s.mainFlood
	if !isMain {
		fs, heard, flood = &s.bgFiring, s.bgHeard, s.bgFlood
	}
	if fs.window != window {
		s.rebuildFiring(fs, isMain, window)
	}
	var center []int32 // the background lane's shared clustering
	if !isMain {
		center = c.bgs[s.bgClk.fid].part.Center
	}
	for w, word := range fs.bits {
		var fire uint64
		for m := word & heard[w]; m != 0; m &= m - 1 {
			b := bits.TrailingZeros64(m)
			fire |= coin(&c.rnd[w<<6+b], thr) << b
		}
		for ; fire != 0; fire &= fire - 1 {
			v := w<<6 + bits.TrailingZeros64(fire)
			ctr := center
			if isMain {
				ctr = c.mains[s.mainClk[s.ci[v]].fid].part.Center
			}
			tx = append(tx, int32(v))
			msgs = append(msgs, radio.Message{Kind: KindICP, A: flood[v], B: int64(ctr[v])})
		}
	}
	return tx, msgs
}

// rebuildFiring re-derives a helper lane's whole firing set for a new
// Decay window: per main clock on its members, or for every node at once
// on the background lane's shared fid.
//
//radionet:hotpath
func (s *bulkState) rebuildFiring(fs *firingSet, isMain bool, window int64) {
	c := s.c
	fs.window = window
	if !isMain {
		s.deriveFiring(fs, c.bgs, s.bgClk.fid, c.coinBg, s.members)
		return
	}
	for i := range s.mainClk {
		s.deriveFiring(fs, c.mains, s.mainClk[i].fid, c.coinMain, s.clockMembers(i))
	}
}

// deriveFiring sets the firing bits of the given nodes (s.members for
// every node), all on clustering fid of fines, for fs.window: a node fires if it lies
// within the curtailment radius and its cluster's shared coin
// HashFloat(seed, fid, center, window) is below the window's participation
// probability 2^-i (cnode.actHelper's gates other than heard).
//
//radionet:hotpath
func (s *bulkState) deriveFiring(fs *firingSet, fines []fine, fid int32, seed uint64, nodes []int32) {
	f := &fines[fid]
	p := decay.Prob(int(fs.window % int64(s.c.l4))) // 2^-i, shift-clamped for large phase lengths
	dist, center := f.part.Dist, f.part.Center
	numFine := len(fines)
	for _, v := range nodes {
		bit := uint64(1) << (v & 63)
		if dist[v] <= f.curtail && fs.coin.get(seed, numFine, fid, center[v], fs.window) < p {
			fs.bits[v>>6] |= bit
		} else {
			fs.bits[v>>6] &^= bit
		}
	}
}

// RecvBulk implements radio.BulkReceiver: the round's deliveries in one
// pass, mirroring cnode.Recv per listener.
//
//radionet:hotpath
func (s *bulkState) RecvBulk(t int64, listeners, msgIdx []int32, msgs []radio.Message) {
	for k, vi := range listeners {
		s.recvOne(t, int(vi), &msgs[msgIdx[k]])
	}
}

// recvOne is cnode.Recv against the flat state: value adoption plus the
// lane-local flood update, reading the shared clock the listener's lane is
// on (already advanced by this round's ActBulk, exactly like the per-node
// reference, which advances st.fid before the engine delivers).
func (s *bulkState) recvOne(t int64, v int, msg *radio.Message) {
	c := s.c
	if msg.Kind != KindICP {
		return
	}
	if msg.A > c.globalMax[v] {
		c.globalMax[v] = msg.A
		if msg.A == c.trueMax && (c.counted == nil || c.counted[v]) {
			c.prog.Add(1)
		}
	}
	lane := t % numLanes
	var cl *laneClock
	var f *fine
	var heard []uint64
	var flood []int64
	switch lane {
	case laneMain, laneHelper:
		cl = &s.mainClk[s.ci[v]]
		f = &c.mains[cl.fid]
		heard, flood = s.mainHeard, s.mainFlood
	default:
		cl = &s.bgClk
		f = &c.bgs[cl.fid]
		heard, flood = s.bgHeard, s.bgFlood
	}
	if f.part.Center[v] != int32(msg.B) || f.part.Dist[v] > f.curtail {
		return
	}
	if cl.subphase != 1 || lane == laneHelper || lane == laneBgHelper {
		heard[v>>6] |= 1 << (v & 63)
		if msg.A > flood[v] {
			flood[v] = msg.A
		}
	}
}

// bnode is the engine-facing shim of the bulk path: the engine needs a
// Node per vertex for construction and for the per-node fallback calls
// that remain outside the bulk seams (collision reports under collision
// detection, which carry no information to this protocol).
type bnode struct {
	s  *bulkState
	id int32
}

// IgnoresSilence implements radio.SilenceOblivious (cf. cnode).
func (nd *bnode) IgnoresSilence() bool { return true }

// Act implements radio.Node. It is unreachable: the engine never calls
// per-node Act while a BulkActor is installed, and the bulk path installs
// one unconditionally.
func (nd *bnode) Act(int64) radio.Action {
	panic("compete: per-node Act on the bulk path (engine must use ActBulk)")
}

// Recv implements radio.Node for the residual per-node deliveries outside
// the bulk seam.
func (nd *bnode) Recv(t int64, msg *radio.Message, _ bool) {
	if msg == nil {
		return
	}
	nd.s.recvOne(t, int(nd.id), msg)
}

var _ radio.BulkActor = (*bulkState)(nil)
var _ radio.BulkReceiver = (*bulkState)(nil)
var _ radio.Node = (*bnode)(nil)
var _ radio.SilenceOblivious = (*bnode)(nil)
