package compete

import (
	"math/bits"

	"radionet/internal/decay"
	"radionet/internal/radio"
	"radionet/internal/rng"
	"radionet/internal/schedule"
)

// bulkState is compete's radio.Protocol, over contiguous node state: flat
// per-node slices for the lane-local flood state, plus shared lane
// clocks. It exists because the per-node icpState clocks of the reference
// implementation (node_test.go) are redundant — a node's main-lane (fid,
// slot, offset) is a pure function of its coarse cluster (every member
// follows the coarse center's clustering sequence, and slot lengths
// depend only on the fine clustering in play), and the background lane's
// clock is global (round-robin fids, shared slot lengths). The bulk path
// therefore keeps one clock per coarse cluster plus one background clock.
//
// Each lane keeps two flat views beside its heard bitset and flood values
// (see lane): key, every node's fine-cluster center on the clustering its
// clock is on now, rewritten only when a clock rolls over; and better, the
// nodes whose best known value beats their flood value, updated wherever
// either value changes (delivery and resetFlood). So neither a pass nor a
// delivery looks up a clock's clustering per node.
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
// observational identity, and checkLaneViews the two views, after every
// round.
type bulkState struct {
	c *Compete

	ci      []int32     // node -> main-lane clock index (compact coarse id)
	mainClk []laneClock // one main-lane clock per coarse cluster
	bgClk   laneClock   // the global background-lane clock
	// members lists each main clock's nodes in increasing id order, CSR
	// style: clock i owns members[memberOff[i]:memberOff[i+1]].
	memberOff []int32
	members   []int32
	// wordClk lists, per 64-node word, the main clocks with members in
	// that word and each one's member mask, CSR style: word w owns
	// entries wordClkOff[w]:wordClkOff[w+1].
	wordClkOff  []int32
	wordClk     []int32
	wordClkMask []uint64

	// mainLadders[fid] and bgLadders[fid] group the nodes of each fine
	// clustering by ladder length, word by word.
	mainLadders []ladderSet
	bgLadders   []ladderSet

	main lane // the main process and its Algorithm-4 helper
	bg   lane // the background process and its Algorithm-4 helper

	// scratch holds every clock's derived values for the current round:
	// one entry per main clock, then the background clock's. levelStep
	// backs their step tables, levelStride entries per clock in the same
	// order.
	scratch     []clkInfo
	levelStep   []uint8
	levelStride int
}

// maxSteps bounds every coin step plus one, sizing the per-word coin
// prefix arrays: a sweep step is below its ladder length and a helper
// step below l4, and both are at most 32 for int32 node ids.
const maxSteps = 64

// lane is one ICP process's flat per-node state, shared with its
// Algorithm-4 helper lane, which floods the same clustering.
type lane struct {
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

func newLane(n int, gm []int64) lane {
	words := (n + 63) / 64
	ln := lane{
		heard:  make([]uint64, words),
		flood:  make([]int64, n),
		key:    make([]int32, n),
		better: make([]uint64, words),
		firing: firingSet{bits: make([]uint64, words), window: -1},
	}
	ln.firing.coin.init(n)
	for v := range ln.flood {
		ln.flood[v] = Uninformed
		if gm[v] > Uninformed {
			ln.better[v>>6] |= 1 << (v & 63)
		}
	}
	return ln
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
	center   int32 // owning coarse center (main clocks; unused for bg)
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
func (s *bulkState) derive(cl *laneClock, f *fine, lad *ladderSet, tab []uint8) clkInfo {
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
		c:    c,
		ci:   make([]int32, n),
		main: newLane(n, c.globalMax),
		bg:   newLane(n, c.globalMax),
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
	// Per-word clock lists: a word's clocks are few, so a linear search
	// finds a node's entry.
	s.wordClkOff = make([]int32, words+1)
	for w := range words {
		lo := len(s.wordClk)
		for v := w << 6; v < min(n, w<<6+64); v++ {
			k := lo
			for k < len(s.wordClk) && s.wordClk[k] != s.ci[v] {
				k++
			}
			if k == len(s.wordClk) {
				s.wordClk = append(s.wordClk, s.ci[v])
				s.wordClkMask = append(s.wordClkMask, 0)
			}
			s.wordClkMask[k] |= 1 << (v & 63)
		}
		s.wordClkOff[w+1] = int32(len(s.wordClk))
	}
	s.scratch = make([]clkInfo, len(s.mainClk)+1)
	maxLevel := 1
	for i := range c.mains {
		s.mainLadders = append(s.mainLadders, newLadderSet(c.mains[i].sched))
		maxLevel = max(maxLevel, c.mains[i].sched.MaxLevel)
	}
	for i := range c.bgs {
		s.bgLadders = append(s.bgLadders, newLadderSet(c.bgs[i].sched))
		maxLevel = max(maxLevel, c.bgs[i].sched.MaxLevel)
	}
	s.levelStride = maxLevel + 1
	s.levelStep = make([]uint8, len(s.scratch)*s.levelStride)
	for i := range s.mainClk {
		s.main.setKeys(&c.mains[s.mainClk[i].fid], s.clockMembers(i))
	}
	s.bg.setKeys(&c.bgs[s.bgClk.fid], s.members)
	return s
}

// ActBulk implements radio.Protocol: one round's transmitters in
// increasing id order, mirroring cnode.Act exactly (same gates, same
// coins, same messages).
//
//radionet:hotpath
func (s *bulkState) ActBulk(t int64, tx []int32, msgs []radio.Message) ([]int32, []radio.Message) {
	cfg := &s.c.cfg
	lane := t % numLanes
	lt := t / numLanes
	coins := rng.NewWordCoins(s.c.coinKey, t)
	switch lane {
	case laneMain:
		return s.actMain(coins, tx, msgs)
	case laneHelper:
		if cfg.DisableHelper {
			return tx, msgs
		}
		return s.actHelper(coins, true, lt, tx, msgs)
	case laneBg:
		if cfg.DisableBackground {
			return tx, msgs
		}
		return s.actBg(coins, tx, msgs)
	default:
		if cfg.DisableBackground || cfg.DisableHelper {
			return tx, msgs
		}
		return s.actHelper(coins, false, lt, tx, msgs)
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
func (s *bulkState) actMain(coins rng.WordCoins, tx []int32, msgs []radio.Message) ([]int32, []radio.Message) {
	c := s.c
	for i := range s.mainClk {
		cl := &s.mainClk[i]
		f := &c.mains[cl.fid]
		info := &s.scratch[i]
		*info = s.derive(cl, f, &s.mainLadders[cl.fid], s.levelStep[i*s.levelStride:])
		if info.boundary {
			s.resetFlood(s.clockMembers(i), &s.main)
		}
	}
	tx, msgs = s.icpMain(coins, tx, msgs)
	for i := range s.mainClk {
		cl := &s.mainClk[i]
		cl.subphase = s.scratch[i].subphase
		cl.offset++
		if cl.offset >= s.scratch[i].f.slotLen {
			cl.offset = 0
			cl.k++
			cl.fid = c.mainFid(cl.center, cl.k)
			members := s.clockMembers(i)
			s.main.setKeys(&c.mains[cl.fid], members)
			if s.main.firing.window >= 0 {
				s.deriveFiring(&s.main, len(c.mains), cl.fid, c.coinMain, members)
			}
		}
	}
	return tx, msgs
}

// actBg is actMain for the background lane's single global clock. A
// rollover rewrites every node's key and invalidates the background
// firing set, which every node shares a fid in; the next helper round
// rebuilds it.
//
//radionet:hotpath
func (s *bulkState) actBg(coins rng.WordCoins, tx []int32, msgs []radio.Message) ([]int32, []radio.Message) {
	c := s.c
	cl := &s.bgClk
	f := &c.bgs[cl.fid]
	bg := len(s.mainClk)
	info := &s.scratch[bg]
	*info = s.derive(cl, f, &s.bgLadders[cl.fid], s.levelStep[bg*s.levelStride:])
	if info.boundary {
		s.resetFlood(s.members, &s.bg)
	}
	tx, msgs = s.icpBg(coins, info, tx, msgs)
	cl.subphase = info.subphase
	cl.offset++
	if cl.offset >= f.slotLen {
		cl.offset = 0
		cl.k++
		cl.fid = c.bgFid(cl.k)
		s.bg.setKeys(&c.bgs[cl.fid], s.members)
		s.bg.firing.window = -1
	}
	return tx, msgs
}

// resetFlood starts an outward sub-phase of the lane's current clustering
// for the given nodes (s.members for every node): only the cluster
// centers (key[v] == v, which the curtailment radius always admits) hold
// the flood, seeded with their best known value, so only the others can
// know better.
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

// icpMain is one main-lane ICP round over the heard nodes, each on its
// coarse clock's values in s.scratch. A node that has not heard its
// cluster flood never transmits, so skipping it changes nothing: every
// per-node effect (gates, coin, message) is node-local. The reference's
// curtailment gate (Dist <= curtail) always passes here: a clock's members
// are reset before its first pass on a new clustering, which marks only
// centers heard, and RecvBulk marks a node heard only when the sender's
// center matches its key, which is -1 beyond the curtailment radius. So
// every heard node's key is its center.
//
// Each heard word is handled a group of nodes at a time: per clock in the
// word, its heard members pass the inward gate (in the inward sub-phase a
// node relays only strictly better knowledge: an AND with the lane's
// better word), then split by ladder length into step classes
// (addClasses). The word's coins are hashed up to the largest step in use
// and ANDed with the classes (fireMask), and the hits are emitted in
// increasing id order. A word with no gated node is never hashed.
//
//radionet:hotpath
func (s *bulkState) icpMain(coins rng.WordCoins, tx []int32, msgs []radio.Message) ([]int32, []radio.Message) {
	gm, ln, clks := s.c.globalMax, &s.main, s.scratch
	var cls, p [maxSteps]uint64
	for w, heard := range ln.heard {
		if heard == 0 {
			continue
		}
		top := -1
		var inward uint64 // gated nodes whose clock is in the inward sub-phase
		for k := s.wordClkOff[w]; k < s.wordClkOff[w+1]; k++ {
			h := heard & s.wordClkMask[k]
			if h == 0 {
				continue
			}
			info := &clks[s.wordClk[k]]
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
			a := ln.flood[v] // outward sub-phases flood the cluster value
			if inward&(1<<b) != 0 {
				a = gm[v]
			}
			tx = append(tx, int32(v))
			msgs = append(msgs, radio.Message{Kind: KindICP, A: a, B: int64(ln.key[v])})
		}
	}
	return tx, msgs
}

// icpBg is icpMain for the background lane, whose nodes all share the
// clock values in info.
//
//radionet:hotpath
func (s *bulkState) icpBg(coins rng.WordCoins, info *clkInfo, tx []int32, msgs []radio.Message) ([]int32, []radio.Message) {
	ln := &s.bg
	inward := info.subphase == 1
	val := ln.flood // outward sub-phases flood the cluster value
	if inward {
		val = s.c.globalMax
	}
	var cls, p [maxSteps]uint64
	for w, h := range ln.heard {
		if inward {
			h &= ln.better[w]
		}
		if h == 0 {
			continue
		}
		top := info.addClasses(h, w, &cls, -1)
		if top < 0 {
			continue
		}
		for fire := fireMask(coins, w, &cls, &p, top); fire != 0; fire &= fire - 1 {
			v := w<<6 + bits.TrailingZeros64(fire)
			tx = append(tx, int32(v))
			msgs = append(msgs, radio.Message{Kind: KindICP, A: val[v], B: int64(ln.key[v])})
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

// actHelper runs one Algorithm-4 helper round for the main or background
// companion lane (cf. cnode.actHelper): the nodes that both heard their
// cluster flood and are in the lane's firing set for this window draw the
// window step's Decay coin, then the hits are emitted in increasing id
// order. Every node shares the step, so a word's hits are one AND with
// its coins at that step.
//
//radionet:hotpath
func (s *bulkState) actHelper(coins rng.WordCoins, isMain bool, lt int64, tx []int32, msgs []radio.Message) ([]int32, []radio.Message) {
	l4 := int64(s.c.l4)
	window := lt / l4
	step := lt % l4
	ln := &s.main
	if !isMain {
		ln = &s.bg
	}
	if ln.firing.window != window {
		s.rebuildFiring(ln, isMain, window)
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

// rebuildFiring re-derives a helper lane's whole firing set for a new
// Decay window: per main clock on its members, or for every node at once
// on the background lane's shared fid.
//
//radionet:hotpath
func (s *bulkState) rebuildFiring(ln *lane, isMain bool, window int64) {
	c := s.c
	ln.firing.window = window
	if !isMain {
		s.deriveFiring(ln, len(c.bgs), s.bgClk.fid, c.coinBg, s.members)
		return
	}
	for i := range s.mainClk {
		s.deriveFiring(ln, len(c.mains), s.mainClk[i].fid, c.coinMain, s.clockMembers(i))
	}
}

// deriveFiring sets the lane's firing bits for the given nodes (s.members
// for every node), whose clock is on clustering fid of the lane's numFine
// clusterings, for the window in ln.firing. A node fires when it lies
// within the curtailment radius (key >= 0) and its cluster's shared coin
// HashFloat(seed, fid, center, window) is below the window's participation
// probability 2^-i: cnode.actHelper's gates other than heard.
//
//radionet:hotpath
func (s *bulkState) deriveFiring(ln *lane, numFine int, fid int32, seed uint64, nodes []int32) {
	fs := &ln.firing
	p := decay.Prob(int(fs.window % int64(s.c.l4))) // 2^-i, shift-clamped for large phase lengths
	for _, v := range nodes {
		bit := uint64(1) << (v & 63)
		if k := ln.key[v]; k >= 0 && fs.coin.get(seed, numFine, fid, k, fs.window) < p {
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
// except on an ICP lane whose clock is in the inward sub-phase. The lane
// keys were already advanced by this round's ActBulk, exactly like the
// per-node reference, which advances st.fid before the engine delivers.
// A rising globalMax can set either lane's better bit; a rising flood
// value can clear the round lane's.
//
//radionet:hotpath
func (s *bulkState) RecvBulk(t int64, listeners, msgIdx []int32, msgs []radio.Message) {
	c := s.c
	gm := c.globalMax
	phase := t % numLanes
	ln, other := &s.main, &s.bg
	if phase == laneBg || phase == laneBgHelper {
		ln, other = &s.bg, &s.main
	}
	// The background clock's sub-phase holds for every listener; a main
	// clock's only for its members, so the main ICP lane reads it per node.
	mainICP := phase == laneMain
	bgInward := phase == laneBg && s.bgClk.subphase == 1
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
		if ln.key[v] != int32(msg.B) || bgInward || mainICP && s.mainClk[s.ci[v]].subphase == 1 {
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
