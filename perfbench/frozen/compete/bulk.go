package compete

import (
	"math"

	"radionet/perfbench/frozen/decay"
	"radionet/perfbench/frozen/radio"
	"radionet/perfbench/frozen/rng"
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
// clock, and each round's transmitters come from a single pass over the
// flat storage in increasing id order, drawing per-node randomness under
// exactly the reference implementation's gates — observational identity is
// enforced by the equivalence tests in bulk_test.go.
type bulkState struct {
	c     *Compete
	shims []bnode

	ci      []int32     // node -> main-lane clock index (compact coarse id)
	mainClk []laneClock // one main-lane clock per coarse cluster
	bgClk   laneClock   // the global background-lane clock

	mainHeard []bool  // main lane: heard the cluster flood this slot
	mainFlood []int64 // main lane: the flooded value
	bgHeard   []bool  // background lane: heard the cluster flood this slot
	bgFlood   []int64 // background lane: the flooded value

	// thr[s] is the integer Bernoulli threshold for the schedule sweep
	// probability 2^-(s+1): rnd.Uint64()>>11 < thr[s] is the same draw and
	// outcome as rnd.Bernoulli(schedule.Prob(level, t)) at s = t%level.
	thr []uint64
	// helperThr is the same table for the Algorithm-4 decay steps.
	helperThr []uint64

	scratch []clkInfo // per-main-clock derived values for the current round

	// Helper-lane cluster-coin cache: every member of a fine cluster
	// computes the same HashFloat(coinSeed, fid, center, window), so the
	// hash is evaluated once per (center, fid, window) and memoized under
	// a stamp that encodes (window, fid). One cache per helper lane —
	// the lanes differ in coin seed and fid space.
	mainCoin coinCache
	bgCoin   coinCache
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
	step     int64 // offset within the current sub-phase
}

// coinCache memoizes the shared per-cluster helper coin, keyed by fine
// cluster center and stamped by (window, fid) so stale windows and
// clustering switches invalidate lazily.
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
	s := &bulkState{
		c:         c,
		ci:        make([]int32, n),
		mainHeard: make([]bool, n),
		mainFlood: make([]int64, n),
		bgHeard:   make([]bool, n),
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
	s.scratch = make([]clkInfo, len(s.mainClk))
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
	s.helperThr = make([]uint64, c.l4)
	for i := range s.helperThr {
		s.helperThr[i] = uint64(math.Ceil(decay.Prob(i) * (1 << 53)))
	}
	s.mainCoin.init(n)
	s.bgCoin.init(n)
	s.shims = make([]bnode, n)
	for v := range s.shims {
		s.shims[v] = bnode{s: s, id: int32(v)}
	}
	return s
}

// ActBulk implements radio.BulkActor: one pass over the flat node state in
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

// actMain runs one main-lane ICP round: derive each coarse clock's slot
// position, pass over the nodes, then advance the clocks (post-pass, so a
// same-round Recv sees the rolled-over fid exactly as the reference does).
func (s *bulkState) actMain(tx []int32, msgs []radio.Message) ([]int32, []radio.Message) {
	c := s.c
	for i := range s.mainClk {
		cl := &s.mainClk[i]
		f := &c.mains[cl.fid]
		s.scratch[i] = clkInfo{
			f:        f,
			boundary: cl.offset == 0 || cl.offset == 2*f.subLen,
			subphase: int8(cl.offset / f.subLen),
			step:     cl.offset % f.subLen,
		}
	}
	tx, msgs = s.icpPass(s.ci, s.scratch, s.mainHeard, s.mainFlood, tx, msgs)
	for i := range s.mainClk {
		cl := &s.mainClk[i]
		cl.subphase = s.scratch[i].subphase
		cl.offset++
		if cl.offset >= s.scratch[i].f.slotLen {
			cl.offset = 0
			cl.k++
			cl.fid = c.mainFid(cl.center, cl.k)
		}
	}
	return tx, msgs
}

// actBg is actMain for the background lane's single global clock.
func (s *bulkState) actBg(tx []int32, msgs []radio.Message) ([]int32, []radio.Message) {
	c := s.c
	cl := &s.bgClk
	f := &c.bgs[cl.fid]
	info := clkInfo{
		f:        f,
		boundary: cl.offset == 0 || cl.offset == 2*f.subLen,
		subphase: int8(cl.offset / f.subLen),
		step:     cl.offset % f.subLen,
	}
	tx, msgs = s.icpPass(nil, []clkInfo{info}, s.bgHeard, s.bgFlood, tx, msgs)
	cl.subphase = info.subphase
	cl.offset++
	if cl.offset >= f.slotLen {
		cl.offset = 0
		cl.k++
		cl.fid = c.bgFid(cl.k)
	}
	return tx, msgs
}

// icpPass is the shared per-node loop of one ICP lane round. ci maps each
// node to its clock in clks; a nil ci means every node shares clks[0]
// (the background lane).
//
//radionet:hotpath
func (s *bulkState) icpPass(ci []int32, clks []clkInfo, heard []bool, flood []int64, tx []int32, msgs []radio.Message) ([]int32, []radio.Message) {
	c := s.c
	gm := c.globalMax
	for v := range gm {
		info := &clks[0]
		if ci != nil {
			info = &clks[ci[v]]
		}
		f := info.f
		if info.boundary {
			// Outward sub-phase begins: only the center holds the flood.
			if f.part.Center[v] == int32(v) {
				heard[v] = true
				flood[v] = gm[v]
			} else {
				heard[v] = false
				flood[v] = Uninformed
			}
		}
		if f.part.Dist[v] > f.curtail || !heard[v] {
			continue
		}
		a := flood[v] // outward sub-phases flood the cluster value
		if info.subphase == 1 {
			// Inward sub-phase: relay only strictly better knowledge.
			if gm[v] <= flood[v] {
				continue
			}
			a = gm[v]
		}
		level := int64(f.sched.Levels[v])
		if c.rnd[v].Uint64()>>11 < s.thr[info.step%level] {
			tx = append(tx, int32(v))
			msgs = append(msgs, radio.Message{Kind: KindICP, A: a, B: int64(f.part.Center[v])})
		}
	}
	return tx, msgs
}

// actHelper runs one Algorithm-4 helper round for the main or background
// companion lane (cf. cnode.actHelper; the window/step/phase values are
// lane-global and hoisted out of the node loop).
//
//radionet:hotpath
func (s *bulkState) actHelper(isMain bool, lt int64, tx []int32, msgs []radio.Message) ([]int32, []radio.Message) {
	c := s.c
	l4 := int64(c.l4)
	window := lt / l4
	step := int(lt % l4)
	i := int(window%l4) + 1
	p := decay.Prob(i - 1) // 2^-i, shift-clamped for large phase lengths
	coinSeed := c.coinMain
	heard, flood := s.mainHeard, s.mainFlood
	cache, numFine := &s.mainCoin, len(c.mains)
	if !isMain {
		coinSeed = c.coinBg
		heard, flood = s.bgHeard, s.bgFlood
		cache, numFine = &s.bgCoin, len(c.bgs)
	}
	thr := s.helperThr[step]
	bgFid := s.bgClk.fid
	for v := range heard {
		if !heard[v] {
			continue
		}
		fid := bgFid
		if isMain {
			fid = s.mainClk[s.ci[v]].fid
		}
		var f *fine
		if isMain {
			f = &c.mains[fid]
		} else {
			f = &c.bgs[fid]
		}
		if f.part.Dist[v] > f.curtail {
			continue
		}
		center := f.part.Center[v]
		if cache.get(coinSeed, numFine, fid, center, window) >= p {
			continue // cluster sat this Decay phase out
		}
		if c.rnd[v].Uint64()>>11 < thr {
			tx = append(tx, int32(v))
			msgs = append(msgs, radio.Message{Kind: KindICP, A: flood[v], B: int64(center)})
		}
	}
	return tx, msgs
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
	var heard []bool
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
		heard[v] = true
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
