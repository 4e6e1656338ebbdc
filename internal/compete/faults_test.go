package compete

import (
	"fmt"
	"slices"
	"testing"

	"radionet/internal/graph"
	"radionet/internal/radio"
	"radionet/internal/rng"
)

// competeTestPlan is the crash+jam+loss scenario of the overlay
// equivalence test; fresh instances per engine (plans are single-use).
func competeTestPlan(n int) *radio.FaultPlan {
	p := radio.NewFaultPlan(n, 2718)
	p.Crash(31, 40)  // a leg
	p.Crash(35, 0)   // a leg, dead from the start
	p.Crash(15, 200) // a spine node, mid-run
	p.Jam(40, 0.15)
	for v := 1; v < n; v += 4 {
		p.Loss(v, 0.1)
	}
	return p
}

// TestCompeteFaultOverlayMatchesReference is the bulk-vs-per-node fault
// equivalence test for the paper's pipeline: under equal FaultPlan
// overlays, the bulk path must match the per-node reference (perNode)
// round for round — same transmitter sets, same deliveries, same
// completion round, same survivor values.
func TestCompeteFaultOverlayMatchesReference(t *testing.T) {
	record := func(e *radio.Engine) func() []string {
		var rounds []string
		e.Hook = func(_ int64, tx []int32, deliveries, collisions int) {
			ids := slices.Clone(tx)
			slices.Sort(ids)
			rounds = append(rounds, fmt.Sprintf("%v d%d c%d", ids, deliveries, collisions))
		}
		return func() []string { return rounds }
	}
	for _, g := range []*graph.Graph{
		graph.Caterpillar(15, 2), // spine 0..14, legs 15..44
		graph.Grid(9, 23),
	} {
		d := g.Diameter()
		n := g.N()
		const seed = 31
		bulk, err := New(NewPre(g, d, Config{}), seed, map[int]int64{0: 9}, competeTestPlan(n))
		if err != nil {
			t.Fatal(err)
		}
		logA := record(bulk.Engine)
		ref, err := New(NewPre(g, d, Config{}), seed, map[int]int64{0: 9}, competeTestPlan(n))
		if err != nil {
			t.Fatal(err)
		}
		pernode := perNode(ref, competeTestPlan(n))
		logB := record(pernode.Engine)

		if bulk.ReachTarget() != pernode.ReachTarget() {
			t.Fatalf("%s: targets differ: bulk %d, per-node %d", g, bulk.ReachTarget(), pernode.ReachTarget())
		}
		budget := 8 * bulk.Budget()
		var doneAt int64 = -1
		for i := int64(0); i < budget; i++ {
			bulk.Engine.Step()
			pernode.Engine.Step()
			if bulk.Done() != pernode.Done() {
				t.Fatalf("%s round %d: Done diverged (bulk %v, per-node %v)", g, i, bulk.Done(), pernode.Done())
			}
			if bulk.Done() {
				doneAt = i
				break
			}
		}
		if doneAt < 0 {
			t.Fatalf("%s: faulted compete incomplete after %d rounds (%d/%d)", g, budget, bulk.Reached(), bulk.ReachTarget())
		}
		a, b := logA(), logB()
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("%s round %d diverged:\nbulk:      %s\nreference: %s", g, i, a[i], b[i])
			}
		}
		if bulk.Engine.Metrics != pernode.Engine.Metrics {
			t.Fatalf("%s: metrics diverged:\nbulk:      %+v\nreference: %+v", g, bulk.Engine.Metrics, pernode.Engine.Metrics)
		}
		av, bv := bulk.Values(), pernode.Values()
		alive := competeTestPlan(n).SurvivorMask()
		for v := range av {
			if alive[v] && av[v] != bv[v] {
				t.Fatalf("%s: survivor %d values diverged: %d vs %d", g, v, av[v], bv[v])
			}
		}
	}
}

// TestFaultedBroadcastTerminatesBothPaths is the acceptance criterion: a
// crash-fault broadcast (30% of non-source nodes crashing at round 50)
// terminates with Done=true well under budget and reaches every
// survivor-reachable node, on both the bulk path and the per-node
// reference (perNode), each under the engine overlay — before the
// survivor-scoped target, both could only exhaust the whole whp budget and
// report failure.
func TestFaultedBroadcastTerminatesBothPaths(t *testing.T) {
	g := graph.Grid(6, 10)
	d := g.Diameter()
	n := g.N()
	mkPlan := func() *radio.FaultPlan {
		p := radio.NewFaultPlan(n, 7)
		r := rng.New(7)
		crashed := 0
		for v := 1; v < n && crashed < n*3/10; v++ {
			if r.Bernoulli(0.4) {
				p.Crash(v, 50)
				crashed++
			}
		}
		return p
	}

	bulk, err := New(NewPre(g, d, Config{}), 13, map[int]int64{0: 9}, mkPlan())
	if err != nil {
		t.Fatal(err)
	}
	ref, err := New(NewPre(g, d, Config{}), 13, map[int]int64{0: 9}, mkPlan())
	if err != nil {
		t.Fatal(err)
	}
	for name, c := range map[string]*Compete{"bulk": bulk, "per-node": perNode(ref, mkPlan())} {
		budget := 8 * c.Budget()
		res := c.Run(budget)
		rounds, done := res.Rounds, res.Done
		if !done {
			t.Fatalf("%s: faulted broadcast incomplete after %d rounds (%d/%d informed)",
				name, rounds, c.Reached(), c.ReachTarget())
		}
		if rounds >= budget/2 {
			t.Errorf("%s: %d rounds is not 'well under' the %d budget", name, rounds, budget)
		}
		if c.Reached() != c.ReachTarget() {
			t.Errorf("%s: reach %d/%d at Done", name, c.Reached(), c.ReachTarget())
		}
		if !c.doneFullScan() {
			t.Errorf("%s: incremental Done disagrees with the survivor-scoped full scan", name)
		}
	}
}

// TestBroadcastSurvivesCrashes injects crash faults into non-cut nodes and
// requires every surviving node to still learn the message: the protocol
// must not depend on any fixed relay set (clusterings are resampled every
// slot, so dead nodes are routed around).
func TestBroadcastSurvivesCrashes(t *testing.T) {
	g := graph.Caterpillar(30, 2) // spine 0..29, legs 30..89
	d := g.Diameter()
	// Crash a third of the legs early; legs are never cut vertices.
	plan := radio.NewFaultPlan(g.N(), 17)
	for v := 30; v < 90; v += 3 {
		plan.Crash(v, 50)
	}
	c, err := New(NewPre(g, d, Config{}), 17, map[int]int64{0: 9}, plan)
	if err != nil {
		t.Fatal(err)
	}
	if c.ReachTarget() != 70 {
		t.Fatalf("ReachTarget = %d, want the 70 survivors", c.ReachTarget())
	}
	res := c.Run(8 * c.Budget())
	rounds, done := res.Rounds, res.Done
	if !done {
		t.Fatalf("surviving nodes not informed after %d rounds (%d/%d)", rounds, c.Reached(), c.ReachTarget())
	}
	for v, val := range c.Values() {
		if plan.Alive(v) && val != c.TrueMax() {
			t.Fatalf("survivor %d holds %d at Done, want %d", v, val, c.TrueMax())
		}
	}
}

// TestBroadcastSurvivesJamming runs the pipeline with random jammers that
// transmit noise 20% of rounds: pure interference, no protocol content.
func TestBroadcastSurvivesJamming(t *testing.T) {
	g := graph.Grid(6, 20)
	d := g.Diameter()
	plan := radio.NewFaultPlan(g.N(), 5)
	for v := 3; v < g.N(); v += 10 { // every tenth node doubles as a jammer
		plan.Jam(v, 0.2)
	}
	c, err := New(NewPre(g, d, Config{}), 23, map[int]int64{0: 9}, plan)
	if err != nil {
		t.Fatal(err)
	}
	res := c.Run(16 * c.Budget())
	rounds, done := res.Rounds, res.Done
	if !done {
		t.Fatalf("broadcast under jamming incomplete after %d rounds (%d/%d informed)",
			rounds, c.Reached(), g.N())
	}
}

// TestBroadcastSurvivesLossyReceivers degrades every receiver with 20%
// reception loss.
func TestBroadcastSurvivesLossyReceivers(t *testing.T) {
	g := graph.Path(40)
	plan := radio.NewFaultPlan(g.N(), 6)
	for v := range g.N() {
		plan.Loss(v, 0.2)
	}
	c, err := New(NewPre(g, 39, Config{}), 29, map[int]int64{0: 9}, plan)
	if err != nil {
		t.Fatal(err)
	}
	res := c.Run(16 * c.Budget())
	rounds, done := res.Rounds, res.Done
	if !done {
		t.Fatalf("broadcast with lossy receivers incomplete after %d rounds", rounds)
	}
}
