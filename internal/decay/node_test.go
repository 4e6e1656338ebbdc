package decay

import "radionet/internal/radio"

// Act is the per-node oracle for Broadcast.ActBulkRange: the classical
// Decay node, one Bernoulli(Prob(step)) coin per round while informed and
// past its participation gate.
func (b *node) Act(t int64) radio.Action {
	if !b.informed() {
		return radio.Listen
	}
	if t < b.informedAt {
		return radio.Listen
	}
	// step = t mod levels, tracked via the phase start; the loop crosses
	// phase boundaries and normally runs 0 or 1 times.
	L := int64(b.tr.levels)
	for t-b.phaseStart >= L {
		b.phaseStart += L
	}
	if b.rnd.Bernoulli(Prob(int(t - b.phaseStart))) {
		return radio.Transmit(radio.Message{Kind: KindBroadcast, A: b.val})
	}
	return radio.Listen
}

// perNode swaps a freshly built b's engine for one that runs its nodes'
// Act and Recv through the radio per-node adapter (the reference path the
// bulk protocol is pinned to), installs plan as the new engine's fault
// overlay, and returns b. plan must be the plan b was built with (or nil):
// the discarded engine never stepped, so the plan's coin streams are
// still fresh.
func perNode(b *Broadcast, plan *radio.FaultPlan) *Broadcast {
	if b.Engine.Round() != 0 {
		panic("decay: perNode after the first Step")
	}
	rn := make([]radio.Node, len(b.nodes))
	for i := range b.nodes {
		rn[i] = &b.nodes[i]
	}
	b.Engine = radio.NewNodeEngine(b.Engine.G, rn)
	b.Engine.SetFaults(plan)
	return b
}
