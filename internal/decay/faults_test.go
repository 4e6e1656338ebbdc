package decay

import (
	"fmt"
	"slices"
	"testing"

	"radionet/internal/graph"
	"radionet/internal/radio"
)

// decayTestPlan is the crash+jam+loss scenario shared by the overlay
// equivalence tests; fresh instances per engine (plans are single-use).
func decayTestPlan(n int) *radio.FaultPlan {
	p := radio.NewFaultPlan(n, 4711)
	p.Crash(7, 30)
	p.Crash(19, 0)
	p.Crash(33, 80)
	p.Jam(11, 0.2)
	p.Jam(28, 0.1)
	for v := 0; v < n; v += 3 {
		p.Loss(v, 0.15)
	}
	return p
}

// TestDecayFaultOverlayMatchesReference is the bulk-vs-per-node fault
// equivalence test: under equal FaultPlan overlays, the bulk path must
// match the per-node path round for round — same transmitter sets, same
// deliveries, same rounds to completion, same survivor reach.
func TestDecayFaultOverlayMatchesReference(t *testing.T) {
	g := graph.Grid(6, 8)
	n := g.N()
	record := func(e *radio.Engine) func() []string {
		var rounds []string
		e.Hook = func(_ int64, tx []int32, deliveries, collisions int) {
			ids := slices.Clone(tx)
			slices.Sort(ids)
			rounds = append(rounds, fmt.Sprintf("%v d%d c%d", ids, deliveries, collisions))
		}
		return func() []string { return rounds }
	}
	sources := map[int]int64{0: 9}

	bulk := NewBroadcast(g, g.DiameterEstimate(), Config{Faults: decayTestPlan(n)}, 17, sources)
	logA := record(bulk.Engine)

	plan := decayTestPlan(n)
	pernode := perNode(NewBroadcast(g, g.DiameterEstimate(), Config{Faults: plan}, 17, sources), plan)
	logB := record(pernode.Engine)

	if bulk.ReachTarget() != pernode.ReachTarget() {
		t.Fatalf("targets differ: bulk %d, per-node %d", bulk.ReachTarget(), pernode.ReachTarget())
	}
	const maxRounds = 4000
	var doneAt int64 = -1
	for i := int64(0); i < maxRounds; i++ {
		bulk.Engine.Step()
		pernode.Engine.Step()
		if bulk.done() != pernode.done() {
			t.Fatalf("round %d: Done diverged (bulk %v, per-node %v)", i, bulk.done(), pernode.done())
		}
		if bulk.done() {
			doneAt = i
			break
		}
	}
	if doneAt < 0 {
		t.Fatalf("faulted broadcast incomplete after %d rounds (%d/%d)", maxRounds, bulk.Reached(), bulk.ReachTarget())
	}
	a, b := logA(), logB()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("round %d diverged:\nbulk+overlay: %s\nreference:    %s", i, a[i], b[i])
		}
	}
	if bulk.Engine.Metrics != pernode.Engine.Metrics {
		t.Fatalf("metrics diverged:\nbulk+overlay: %+v\nreference:    %+v", bulk.Engine.Metrics, pernode.Engine.Metrics)
	}
	if bulk.Reached() != pernode.Reached() || bulk.Reached() != bulk.ReachTarget() {
		t.Fatalf("reach diverged: bulk %d/%d, per-node %d/%d",
			bulk.Reached(), bulk.ReachTarget(), pernode.Reached(), pernode.ReachTarget())
	}
	av, bv := bulk.Values(), pernode.Values()
	alive := decayTestPlan(n).SurvivorMask()
	for v := range av {
		if alive[v] && av[v] != bv[v] {
			t.Fatalf("survivor %d values diverged: %d vs %d", v, av[v], bv[v])
		}
	}
}

// TestDecaySurvivorScopedTermination: with a crash plan installed, Done
// fires once every survivor-reachable node is informed — before the fix
// the target stayed n and every faulted run could only exhaust its budget.
func TestDecaySurvivorScopedTermination(t *testing.T) {
	// Path: crashing an interior node at round 0 cuts everything behind it.
	g := graph.Path(40)
	plan := radio.NewFaultPlan(40, 5)
	plan.Crash(20, 0)
	b := NewBroadcast(g, g.DiameterEstimate(), Config{Faults: plan}, 11, map[int]int64{0: 9})
	if got := b.ReachTarget(); got != 20 {
		t.Fatalf("ReachTarget = %d, want 20 (nodes 0..19)", got)
	}
	res := b.Run(1 << 20)
	rounds, done := res.Rounds, res.Done
	if !done {
		t.Fatalf("survivor-scoped broadcast incomplete after %d rounds (%d/%d)", rounds, b.Reached(), b.ReachTarget())
	}
	if b.Reached() != b.ReachTarget() {
		t.Fatalf("reach %d/%d at Done", b.Reached(), b.ReachTarget())
	}
	if !b.doneFullScan() {
		t.Fatal("incremental Done disagrees with the survivor-scoped full scan")
	}
	// The unreachable side must not have been counted even if partially
	// informed before the crash (crash at 0 here, so it stays dark).
	for v, val := range b.Values() {
		if v > 20 && val != -1 {
			t.Fatalf("node %d informed through a dead cut vertex", v)
		}
	}
}

// TestDecayBroadcastSurvivesCrashes: a grid stays connected after losing
// scattered interior nodes, and every survivor learns the message.
func TestDecayBroadcastSurvivesCrashes(t *testing.T) {
	g := graph.Grid(10, 10)
	plan := radio.NewFaultPlan(g.N(), 3)
	for _, v := range []int{33, 44, 55, 66} {
		plan.Crash(v, 20)
	}
	b := NewBroadcast(g, g.DiameterEstimate(), Config{Faults: plan}, 3, map[int]int64{0: 9})
	if b.ReachTarget() != 96 {
		t.Fatalf("ReachTarget = %d, want the 96 survivors", b.ReachTarget())
	}
	res := b.Run(1 << 22)
	rounds, done := res.Rounds, res.Done
	if !done {
		t.Fatalf("survivors uninformed after %d rounds (%d/%d)", rounds, b.Reached(), b.ReachTarget())
	}
	for v, val := range b.Values() {
		if plan.Alive(v) && val != 9 {
			t.Fatalf("survivor %d holds %d at Done, want 9", v, val)
		}
	}
}

// TestDecayBroadcastSurvivesJamming: every seventh node of a path jams a
// quarter of the rounds, and the broadcast still completes.
func TestDecayBroadcastSurvivesJamming(t *testing.T) {
	g := graph.Path(50)
	plan := radio.NewFaultPlan(g.N(), 4)
	for v := 3; v < g.N(); v += 7 {
		plan.Jam(v, 0.25)
	}
	b := NewBroadcast(g, g.DiameterEstimate(), Config{Faults: plan}, 9, map[int]int64{0: 9})
	if !b.Run(1 << 22).Done {
		t.Fatalf("broadcast under jamming incomplete: %d/%d informed", b.informedCount(), g.N())
	}
}
