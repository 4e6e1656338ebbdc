package radio

import (
	"testing"

	"radionet/internal/graph"
)

// TestOverlayCrashMasksTransmitter: a crashed beacon goes off the air at
// its crash round even though the per-node Act (or a bulk pass) would have
// transmitted.
func TestOverlayCrashMasksTransmitter(t *testing.T) {
	g := graph.Path(2)
	heard := 0
	rx := &FuncNode{RecvFn: func(int64, *Message) { heard++ }}
	p := NewFaultPlan(2, 1)
	p.Crash(0, 4)
	e := NewNodeEngine(g, []Node{&beacon{v: 5}, rx})
	e.SetFaults(p)
	for i := 0; i < 10; i++ {
		e.Step()
	}
	if heard != 4 {
		t.Fatalf("receiver heard %d transmissions, want 4", heard)
	}
	if e.Metrics.Transmissions != 4 {
		t.Fatalf("Transmissions = %d, want 4", e.Metrics.Transmissions)
	}
}

// TestCrashedListenerStopsCounting: a crashed listener stops counting
// toward Deliveries. Before the fix a crashed node stayed a
// delivery-counting listener for the rest of the run.
func TestCrashedListenerStopsCounting(t *testing.T) {
	p := NewFaultPlan(2, 1)
	p.Crash(1, 6)
	e := NewNodeEngine(graph.Path(2), []Node{&beacon{v: 9}, silent{}})
	e.SetFaults(p)
	for i := 0; i < 10; i++ {
		e.Step()
	}
	if e.Metrics.Deliveries != 6 {
		t.Errorf("deliveries = %d, want 6 (dead listeners must not count)", e.Metrics.Deliveries)
	}
}

// TestCrashedListenerStopsCountingCollisions: same regression for the
// collision counter (two beacons collide at a third node forever).
func TestCrashedListenerStopsCountingCollisions(t *testing.T) {
	g := graph.Star(3) // center 0 hears both leaves
	p := NewFaultPlan(3, 1)
	p.Crash(0, 3)
	e := NewNodeEngine(g, []Node{silent{}, &beacon{v: 1}, &beacon{v: 2}})
	e.SetFaults(p)
	for i := 0; i < 10; i++ {
		e.Step()
	}
	if e.Metrics.Collisions != 3 {
		t.Fatalf("collisions = %d, want 3 (crashed center must stop counting)", e.Metrics.Collisions)
	}
}

// TestCrashNodeStopsActingAndReceiving: from its crash round on, a node is
// no longer asked to act and hears nothing, although its neighbor keeps
// transmitting to it.
func TestCrashNodeStopsActingAndReceiving(t *testing.T) {
	acts, recvs := 0, 0
	nd := &FuncNode{
		ActFn:  func(int64) Action { acts++; return Listen },
		RecvFn: func(int64, *Message) { recvs++ },
	}
	p := NewFaultPlan(2, 1)
	p.Crash(0, 3)
	e := NewNodeEngine(graph.Path(2), []Node{nd, &beacon{v: 9}})
	e.SetFaults(p)
	for i := 0; i < 10; i++ {
		e.Step()
	}
	if acts != 3 || recvs != 3 {
		t.Fatalf("node acted %d times and received %d times, want 3 and 3", acts, recvs)
	}
	if p.CrashRound(0) != 3 || p.Alive(0) || !p.Alive(1) {
		t.Fatal("crash schedule boundary wrong")
	}
}

// TestCrashedNodeIsSilentOnAir: a crashed node's transmissions computed by
// a Protocol's ActBulk are masked off the air from its crash round on (the
// per-node adapter is TestOverlayCrashMasksTransmitter).
func TestCrashedNodeIsSilentOnAir(t *testing.T) {
	proto := &fixedTx{ids: []int32{0}}
	p := NewFaultPlan(2, 1)
	p.Crash(0, 4)
	e := NewEngine(graph.Path(2), proto)
	e.SetFaults(p)
	for i := 0; i < 10; i++ {
		e.Step()
	}
	if proto.recvs != 4 || e.Metrics.Transmissions != 4 {
		t.Fatalf("receiver heard %d of %d transmissions, want 4 of 4", proto.recvs, e.Metrics.Transmissions)
	}
}

// TestJamNodeStepsInnerEveryRound: a jammer's protocol is still asked to
// act in every round, also in rounds where its jam coin fires and noise
// replaces its action.
func TestJamNodeStepsInnerEveryRound(t *testing.T) {
	acts := 0
	nd := &FuncNode{ActFn: func(int64) Action { acts++; return Transmit(Message{Kind: 1, A: 7}) }}
	noise := 0
	rx := &FuncNode{RecvFn: func(_ int64, m *Message) {
		if m.Kind == KindNoise {
			noise++
		}
	}}
	p := NewFaultPlan(2, 8)
	p.Jam(0, 1)
	e := NewNodeEngine(graph.Path(2), []Node{nd, rx})
	e.SetFaults(p)
	for i := 0; i < 6; i++ {
		e.Step()
	}
	if acts != 6 {
		t.Fatalf("jammer's protocol acted %d times under constant jamming, want 6", acts)
	}
	if noise != 6 || e.Metrics.Transmissions != 6 {
		t.Fatalf("%d noise receptions of %d transmissions, want 6 of 6", noise, e.Metrics.Transmissions)
	}
}

// TestJamNodePassThrough: a zero jam probability installs no jammer, so
// the node acts as its protocol says.
func TestJamNodePassThrough(t *testing.T) {
	acts := 0
	nd := &FuncNode{ActFn: func(int64) Action { acts++; return Listen }}
	p := NewFaultPlan(2, 2)
	p.Jam(0, 0)
	e := NewNodeEngine(graph.Path(2), []Node{nd, silent{}})
	e.SetFaults(p)
	for i := 0; i < 5; i++ {
		e.Step()
	}
	if acts != 5 || e.Metrics.Transmissions != 0 {
		t.Fatalf("node acted %d times with %d transmissions, want 5 and 0", acts, e.Metrics.Transmissions)
	}
}

// TestLossyNodeDropsReceptions: a faded reception is left out of the
// Protocol's RecvBulk call, while it still counts as an engine delivery
// (TestOverlayLossDropsReceptions is the per-node adapter).
func TestLossyNodeDropsReceptions(t *testing.T) {
	proto := &fixedTx{ids: []int32{1}}
	p := NewFaultPlan(2, 3)
	p.Loss(0, 0.5)
	e := NewEngine(graph.Path(2), proto)
	e.SetFaults(p)
	for i := 0; i < 400; i++ {
		e.Step()
	}
	if frac := float64(proto.recvs) / 400; frac < 0.35 || frac > 0.65 {
		t.Fatalf("delivery fraction %.2f, want ~0.5", frac)
	}
	if e.Metrics.Deliveries != 400 {
		t.Fatalf("Deliveries = %d, want 400 (fades count as on-air deliveries)", e.Metrics.Deliveries)
	}
}

// TestOverlayJamCausesCollisions: a constant jammer leaf blanks out the
// star center: it gets no Recv call, and every round counts a collision.
func TestOverlayJamCausesCollisions(t *testing.T) {
	g := graph.Star(3)
	heard := 0
	rx := &FuncNode{RecvFn: func(int64, *Message) { heard++ }}
	p := NewFaultPlan(3, 7)
	p.Jam(2, 1)
	e := NewNodeEngine(g, []Node{rx, &beacon{v: 5}, silent{}})
	e.SetFaults(p)
	for i := 0; i < 20; i++ {
		e.Step()
	}
	if heard != 0 {
		t.Fatalf("center got %d Recv calls through a constant jammer", heard)
	}
	if e.Metrics.Collisions != 20 {
		t.Fatalf("collisions = %d, want 20", e.Metrics.Collisions)
	}
}

// TestOverlayLossDropsReceptions: a lossy listener hears about half of a
// beacon's messages; faded receptions still count as engine deliveries
// (the message was on the air).
func TestOverlayLossDropsReceptions(t *testing.T) {
	g := graph.Path(2)
	heard := 0
	rx := &FuncNode{RecvFn: func(int64, *Message) { heard++ }}
	p := NewFaultPlan(2, 3)
	p.Loss(0, 0.5)
	e := NewNodeEngine(g, []Node{rx, &beacon{v: 5}})
	e.SetFaults(p)
	for i := 0; i < 400; i++ {
		e.Step()
	}
	if frac := float64(heard) / 400; frac < 0.35 || frac > 0.65 {
		t.Fatalf("delivery fraction %.2f, want ~0.5", frac)
	}
	if e.Metrics.Deliveries != 400 {
		t.Fatalf("Deliveries = %d, want 400 (fades count as on-air deliveries)", e.Metrics.Deliveries)
	}
}

// TestSetFaultsValidation: wrong plan size and post-Step installs panic.
func TestSetFaultsValidation(t *testing.T) {
	g := graph.Path(2)
	e := NewNodeEngine(g, []Node{silent{}, silent{}})
	mustPanic := func(name string, f func()) {
		defer func() {
			if recover() == nil {
				t.Errorf("%s: no panic", name)
			}
		}()
		f()
	}
	mustPanic("size mismatch", func() { e.SetFaults(NewFaultPlan(3, 1)) })
	e.Step()
	mustPanic("after Step", func() { e.SetFaults(NewFaultPlan(2, 1)) })
	// nil install is a no-op at any time.
	e.SetFaults(nil)
}

// TestCountedTargetMaxHolderScoping pins the multi-source completion
// scoping: the BFS roots at the surviving maximum-holding sources only —
// a survivor component that holds just lower-valued sources can never
// learn the maximum, so it must not be awaited.
func TestCountedTargetMaxHolderScoping(t *testing.T) {
	// Path 0-1-2-3-4-5; sources at both ends, max at node 5; crashing
	// node 2 splits the survivor graph into {0,1} and {3,4,5}.
	g := graph.Path(6)
	plan := NewFaultPlan(6, 1)
	plan.Crash(2, 50)
	counted, target := plan.CountedTarget(g, map[int]int64{0: 1, 5: 9})
	if target != 3 {
		t.Fatalf("target = %d, want 3 (the max-holder's component)", target)
	}
	for v, want := range []bool{false, false, false, true, true, true} {
		if counted[v] != want {
			t.Fatalf("counted[%d] = %v, want %v (mask %v)", v, counted[v], want, counted)
		}
	}
	// No surviving max-holder: every surviving source roots the BFS.
	plan2 := NewFaultPlan(6, 1)
	plan2.Crash(2, 50)
	plan2.Crash(5, 50)
	counted2, target2 := plan2.CountedTarget(g, map[int]int64{0: 1, 5: 9})
	if target2 != 2 || !counted2[0] || !counted2[1] {
		t.Fatalf("fallback scoping: target %d mask %v, want 2 over {0,1}", target2, counted2)
	}
}

// TestCountedTargetNoSurvivingSourcePins is the instant-Done regression:
// with every source crashed the target must be pinned out of reach
// (n+1), never 0 — a zero target would satisfy Progress before round 0
// and report a dead broadcast complete.
func TestCountedTargetNoSurvivingSourcePins(t *testing.T) {
	g := graph.Path(4)
	plan := NewFaultPlan(4, 1)
	plan.Crash(0, 1000) // even a far-future crash round marks a non-survivor
	counted, target := plan.CountedTarget(g, map[int]int64{0: 9})
	if target != 5 {
		t.Fatalf("target = %d, want n+1 = 5 (unreachable pin)", target)
	}
	for v, c := range counted {
		if c {
			t.Fatalf("counted[%d] = true, want all false", v)
		}
	}
}
