package compete

import (
	"radionet/internal/decay"
	"radionet/internal/radio"
	"radionet/internal/rng"
)

// cnode is the per-node reference implementation of the protocol: a 4-lane
// time-division interleave of the main process, its Algorithm-4 helper,
// the background process, and its helper, with the node's own lane clocks
// in per-node icpState. It is the semantic baseline the bulk path
// (bulk.go) is verified against round for round (see perNode). Node value
// state lives in the instance-wide flat slice Compete.globalMax, shared
// with the bulk path, so accessors and completion tracking are identical
// on both paths; transmission coins are the bulk path's keyed word coins,
// read one bit at a time (cnode.coin).
type cnode struct {
	id   int32
	c    *Compete
	main icpState
	bg   icpState
}

// The reference's lanes, by engine round t mod numLanes.
const (
	laneMain     = 0
	laneHelper   = 1
	laneBg       = 2
	laneBgHelper = 3
)

// icpState is one lane's Intra-Cluster Propagation position for a node.
type icpState struct {
	fid      int32 // index into the lane's fine set
	k        int64 // slot index
	offset   int64 // round offset within the slot
	subphase int8  // 0 out, 1 in, 2 out — valid after the lane's Act
	heard    bool  // heard the cluster flood this slot
	floodVal int64 // the cluster center's flooded value
}

// perNode swaps a freshly built c's engine for one over cnode reference
// machines, through the radio per-node adapter, and returns c.
func perNode(c *Compete) *Compete {
	if c.Engine.Round() != 0 {
		panic("compete: perNode after the first Step")
	}
	n := c.g.N()
	refs := make([]cnode, n)
	rn := make([]radio.Node, n)
	for v := range refs {
		refs[v] = cnode{id: int32(v), c: c}
		refs[v].main.fid = c.mainFid(int32(v), 0)
		rn[v] = &refs[v]
	}
	c.Engine = radio.NewNodeEngine(c.g, rn)
	c.bulk = nil
	return c
}

// Act implements radio.Node.
func (nd *cnode) Act(t int64) radio.Action {
	lane := t % numLanes
	switch lane {
	case laneMain:
		return nd.actICP(t, &nd.main, nd.c.mains, true)
	case laneHelper:
		if nd.c.cfg.DisableHelper {
			return radio.Listen
		}
		return nd.actHelper(t, &nd.main, nd.c.mains, nd.c.coinMain)
	case laneBg:
		if nd.c.cfg.DisableBackground {
			return radio.Listen
		}
		return nd.actICP(t, &nd.bg, nd.c.bgs, false)
	default:
		if nd.c.cfg.DisableBackground || nd.c.cfg.DisableHelper {
			return radio.Listen
		}
		return nd.actHelper(t, &nd.bg, nd.c.bgs, nd.c.coinBg)
	}
}

// Recv implements radio.Node.
func (nd *cnode) Recv(t int64, msg *radio.Message) {
	if msg.Kind != KindICP {
		return
	}
	if msg.A > nd.c.globalMax[nd.id] {
		nd.c.globalMax[nd.id] = msg.A
		if msg.A == nd.c.trueMax {
			nd.c.prog.Add(1)
		}
	}
	lane := t % numLanes
	var st *icpState
	var fines []fine
	switch lane {
	case laneMain, laneHelper:
		st, fines = &nd.main, nd.c.mains
	default:
		st, fines = &nd.bg, nd.c.bgs
	}
	f := &fines[st.fid]
	if f.part.Center[nd.id] != int32(msg.B) || f.part.Dist[nd.id] > f.curtail {
		return
	}
	// In-cluster reception within the curtailment radius: adopt the
	// cluster flood. During the inward sub-phase the relay gate
	// (globalMax > floodVal) is evaluated live in actICP, so nothing else
	// is needed here.
	if st.subphase != 1 || lane == laneHelper || lane == laneBgHelper {
		st.heard = true
		if msg.A > st.floodVal {
			st.floodVal = msg.A
		}
	}
}

// coin reports the node's round-t transmission coin at step s: true with
// probability 2^-(s+1).
func (nd *cnode) coin(t, s int64) bool {
	p := make([]uint64, s+1)
	rng.NewWordCoins(nd.c.coinKey, t).Fill(int(nd.id)>>6, p)
	return p[s]>>(nd.id&63)&1 == 1
}

// actICP advances one lane-local round of Intra-Cluster Propagation
// (Algorithm 3) at engine round t and returns the node's action.
func (nd *cnode) actICP(t int64, st *icpState, fines []fine, isMain bool) radio.Action {
	f := &fines[st.fid]
	globalMax := nd.c.globalMax[nd.id]
	// Slot and sub-phase boundaries.
	if st.offset == 0 || st.offset == 2*f.subLen {
		// Outward sub-phase begins: only the center holds the flood.
		st.heard = false
		st.floodVal = Uninformed
		if f.part.Center[nd.id] == nd.id {
			st.heard = true
			st.floodVal = globalMax
		}
	}
	st.subphase = int8(st.offset / f.subLen)

	action := radio.Listen
	dist := f.part.Dist[nd.id]
	if dist <= f.curtail {
		// The schedule sweep: probability 2^-(step+1) at this offset.
		step := st.offset % f.subLen % int64(f.sched.Levels[nd.id])
		switch st.subphase {
		case 0, 2: // outward flood of the center's value
			if st.heard && nd.coin(t, step) {
				action = radio.Transmit(radio.Message{
					Kind: KindICP, A: st.floodVal, B: int64(f.part.Center[nd.id]),
				})
			}
		case 1: // inward flood of any higher message toward the center
			if st.heard && globalMax > st.floodVal && nd.coin(t, step) {
				action = radio.Transmit(radio.Message{
					Kind: KindICP, A: globalMax, B: int64(f.part.Center[nd.id]),
				})
			}
		}
	}

	// Advance the lane clock; roll into the next clustering slot at the
	// end of this one.
	st.offset++
	if st.offset >= f.slotLen {
		st.offset = 0
		st.k++
		if isMain {
			st.fid = nd.c.mainFid(nd.id, st.k)
		} else {
			st.fid = nd.c.bgFid(st.k)
		}
	}
	return action
}

// actHelper advances one lane-local round of the Algorithm-4 background
// process for the companion lane's current clustering: time is divided
// into Decay phases of length l4; in the i-th phase of each cycle the
// node's cluster participates with (cluster-shared) probability 2^-i, and
// a participating cluster performs one round of Decay announcing its flood
// value, repairing border nodes that collisions starve in the main lane.
func (nd *cnode) actHelper(t int64, st *icpState, fines []fine, coinSeed uint64) radio.Action {
	if !st.heard {
		return radio.Listen
	}
	f := &fines[st.fid]
	if f.part.Dist[nd.id] > f.curtail {
		return radio.Listen
	}
	l4 := int64(nd.c.l4)
	lt := t / numLanes
	window := lt / l4
	step := lt % l4
	i := int(window%l4) + 1
	p := decay.Prob(i - 1) // 2^-i, shift-clamped for large phase lengths
	center := f.part.Center[nd.id]
	if rng.HashFloat(coinSeed, uint64(st.fid), uint64(center), uint64(window)) >= p {
		return radio.Listen // cluster sat this Decay phase out
	}
	if nd.coin(t, step) { // Decay step: probability 2^-(step+1)
		return radio.Transmit(radio.Message{
			Kind: KindICP, A: st.floodVal, B: int64(center),
		})
	}
	return radio.Listen
}

var _ radio.Node = (*cnode)(nil)
