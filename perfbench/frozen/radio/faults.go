package radio

import "radionet/perfbench/frozen/rng"

// This file provides fault-injection wrappers used by the robustness
// tests: radio networks in the field lose nodes, suffer interference, and
// drop receptions, and the paper's algorithms should degrade gracefully
// (uninformed-but-connected survivors must still be reached). Each wrapper
// composes with any Node, including the TDM multiplexer.
//
// Round basis: every wrapper interprets rounds in the basis its own
// Act/Recv calls arrive in. The supported composition is therefore fault
// wrapper OUTERMOST — CrashNode{Inner: NewTDM(...)} crashes at a global
// engine round, which is the semantics this package commits to (faults hit
// the radio, not one lane of a multiplexed protocol). Placing a wrapper
// inside a TDM lane would instead compare against the lane-local round
// (global/k), a footgun pinned by TestFaultWrapperRoundBasisIsGlobal.
//
// For whole-network fault scenarios prefer the engine-side FaultPlan
// overlay (faultplan.go): it composes with the BulkActor/BulkReceiver fast
// paths and keeps dead nodes off the engine's books entirely. The wrappers
// remain the per-node reference the overlay is verified against —
// FaultPlan.Wrap builds the equivalent wrapper chain.

// KindNoise tags transmissions that carry no protocol content (jamming).
// Protocols must ignore unknown kinds, so noise only causes collisions.
const KindNoise Kind = -1

// Mortal is an optional extension of Node for wrappers whose node can die
// permanently. The engine polls Crashed at the top of every round; once it
// reports true the node is dead for the rest of the run: its Act is no
// longer called, it drops out of both listener passes, and it stops
// counting toward Metrics.Deliveries/Collisions — a dead radio is not a
// listener, and before this seam existed a crashed node stayed a
// full-cost, delivery-counting listener forever. Crashed must be monotone
// in round (dead nodes do not resurrect); only the outermost node of a
// wrapper chain is consulted.
type Mortal interface {
	Node
	// Crashed reports whether the node is dead at the given round.
	Crashed(round int64) bool
}

// CrashNode runs Inner until round CrashAt, after which the node is dead:
// it never transmits and discards every reception. CrashAt is a round in
// the basis this node's Act/Recv receive — wrap the TDM, not a lane, so it
// is the global engine round (see the package comment above).
type CrashNode struct {
	Inner   Node
	CrashAt int64
}

// Act implements Node.
func (c *CrashNode) Act(round int64) Action {
	if round >= c.CrashAt {
		return Listen
	}
	return c.Inner.Act(round)
}

// Recv implements Node.
func (c *CrashNode) Recv(round int64, msg *Message, collided bool) {
	if round >= c.CrashAt {
		return
	}
	c.Inner.Recv(round, msg, collided)
}

// Crashed reports whether the node is dead at the given round. It also
// implements Mortal, letting the engine stop treating the dead node as a
// listener.
func (c *CrashNode) Crashed(round int64) bool { return round >= c.CrashAt }

// JamNode transmits noise with probability P each round and otherwise
// behaves as Inner (pass nil Inner for a pure jammer). Jamming models
// adversarial or environmental interference: neighbors of a jamming node
// experience collisions whenever anyone else speaks.
//
// The inner protocol machine steps every round even when the jam coin
// fires — the radio is hijacked for the round, but the state machine
// advances and consumes its randomness exactly as unjammed. This keeps the
// wrapper observationally identical to the engine-side FaultPlan jam
// overlay, whose bulk Act pass cannot suppress a single node's draws.
type JamNode struct {
	Inner Node
	P     float64
	Rnd   *rng.Rand
}

// Act implements Node.
func (j *JamNode) Act(round int64) Action {
	a := Listen
	if j.Inner != nil {
		a = j.Inner.Act(round)
	}
	if j.Rnd.Bernoulli(j.P) {
		return Transmit(Message{Kind: KindNoise})
	}
	return a
}

// Recv implements Node.
func (j *JamNode) Recv(round int64, msg *Message, collided bool) {
	if j.Inner != nil {
		j.Inner.Recv(round, msg, collided)
	}
}

// LossyNode drops each successful reception with probability P (receiver
// fade), passing silence to Inner instead.
type LossyNode struct {
	Inner Node
	P     float64
	Rnd   *rng.Rand
}

// Act implements Node.
func (l *LossyNode) Act(round int64) Action { return l.Inner.Act(round) }

// Recv implements Node.
func (l *LossyNode) Recv(round int64, msg *Message, collided bool) {
	if msg != nil && l.Rnd.Bernoulli(l.P) {
		l.Inner.Recv(round, nil, false)
		return
	}
	l.Inner.Recv(round, msg, collided)
}

var (
	_ Node   = (*CrashNode)(nil)
	_ Mortal = (*CrashNode)(nil)
	_ Node   = (*JamNode)(nil)
	_ Node   = (*LossyNode)(nil)
)
