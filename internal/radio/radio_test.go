package radio

import (
	"fmt"
	"slices"
	"testing"

	"radionet/internal/graph"
)

// collector records everything a node hears.
type collector struct {
	heard []int64
}

func (c *collector) Act(int64) Action { return Listen }
func (c *collector) Recv(_ int64, msg *Message) {
	c.heard = append(c.heard, msg.A)
}

// silent is a listen-only Node double that ignores every reception.
type silent struct{}

func (silent) Act(int64) Action     { return Listen }
func (silent) Recv(int64, *Message) {}

// beacon transmits value v every round.
type beacon struct{ v int64 }

func (b *beacon) Act(int64) Action     { return Transmit(Message{A: b.v}) }
func (b *beacon) Recv(int64, *Message) {}

// FuncNode adapts plain functions to the Node interface: a nil ActFn
// listens, a nil RecvFn ignores every reception.
type FuncNode struct {
	ActFn  func(round int64) Action
	RecvFn func(round int64, msg *Message)
}

func (f *FuncNode) Act(round int64) Action {
	if f.ActFn == nil {
		return Listen
	}
	return f.ActFn(round)
}

func (f *FuncNode) Recv(round int64, msg *Message) {
	if f.RecvFn != nil {
		f.RecvFn(round, msg)
	}
}

func TestSingleTransmitterDelivers(t *testing.T) {
	g := graph.Star(4) // center 0
	c1, c2, c3 := &collector{}, &collector{}, &collector{}
	e := NewNodeEngine(g, []Node{&beacon{v: 42}, c1, c2, c3})
	e.Step()
	for i, c := range []*collector{c1, c2, c3} {
		if len(c.heard) != 1 || c.heard[0] != 42 {
			t.Fatalf("leaf %d heard %v, want [42]", i+1, c.heard)
		}
	}
	if e.Metrics.Deliveries != 3 || e.Metrics.Transmissions != 1 {
		t.Fatalf("metrics %+v", e.Metrics)
	}
}

// TestCollisionIsSilenceWithoutCD checks the model's collision rule: a
// collided listener cannot tell the collision from silence, so it gets no
// Recv call at all, yet the engine still counts the collision.
func TestCollisionIsSilenceWithoutCD(t *testing.T) {
	g := graph.Star(3) // two leaves transmit; the center hears nothing
	c := &collector{}
	e := NewNodeEngine(g, []Node{c, &beacon{v: 1}, &beacon{v: 2}})
	e.Step()
	if len(c.heard) != 0 {
		t.Fatalf("center got Recv calls (heard %v), want none", c.heard)
	}
	if e.Metrics.Collisions != 1 {
		t.Fatalf("collisions metric = %d, want 1", e.Metrics.Collisions)
	}
}

// TestTransmitterCannotHear: node 1 transmits while its only neighbor,
// a beacon, transmits too; a transmitting node must not Recv.
func TestTransmitterCannotHear(t *testing.T) {
	g := graph.Path(2)
	recvCalled := false
	tx := &FuncNode{
		ActFn:  func(int64) Action { return Transmit(Message{A: 7}) },
		RecvFn: func(int64, *Message) { recvCalled = true },
	}
	e := NewNodeEngine(g, []Node{&beacon{v: 9}, tx})
	e.Step()
	if recvCalled {
		t.Fatal("transmitting node received a message")
	}
}

// TestNodeAdapterCallOrder pins the per-node adapter's call order within
// a round: Act on every node in ascending id order, then Recv on every
// receiving listener in ascending id order.
func TestNodeAdapterCallOrder(t *testing.T) {
	g := graph.Path(6) // 1 and 4 transmit
	var calls []string
	nodes := make([]Node, g.N())
	for i := range nodes {
		nodes[i] = &FuncNode{
			ActFn: func(int64) Action {
				calls = append(calls, fmt.Sprintf("act%d", i))
				if i == 1 || i == 4 {
					return Transmit(Message{A: int64(i)})
				}
				return Listen
			},
			RecvFn: func(int64, *Message) { calls = append(calls, fmt.Sprintf("recv%d", i)) },
		}
	}
	NewNodeEngine(g, nodes).Step()
	want := []string{"act0", "act1", "act2", "act3", "act4", "act5", "recv0", "recv2", "recv3", "recv5"}
	if !slices.Equal(calls, want) {
		t.Fatalf("calls %v, want %v", calls, want)
	}
}

func TestExactlyOneNeighborRule(t *testing.T) {
	// Path 0-1-2-3: 0 and 2 transmit. Node 1 has two transmitting
	// neighbors (collision); node 3 has exactly one (2) and receives.
	g := graph.Path(4)
	c1, c3 := &collector{}, &collector{}
	e := NewNodeEngine(g, []Node{&beacon{v: 10}, c1, &beacon{v: 20}, c3})
	e.Step()
	if len(c1.heard) != 0 {
		t.Fatalf("node 1 heard %v, want collision silence", c1.heard)
	}
	if len(c3.heard) != 1 || c3.heard[0] != 20 {
		t.Fatalf("node 3 heard %v, want [20]", c3.heard)
	}
}

func TestSrcStamping(t *testing.T) {
	g := graph.Path(2)
	var src int32 = -1
	rx := &FuncNode{RecvFn: func(_ int64, msg *Message) { src = msg.Src }}
	e := NewNodeEngine(g, []Node{&beacon{v: 5}, rx})
	e.Step()
	if src != 0 {
		t.Fatalf("src = %d, want 0", src)
	}
}

// stepN executes exactly n rounds of e, the fixed-length run the engine
// tests drive.
func stepN(e *Engine, n int64) {
	for ; n > 0; n-- {
		e.Step()
	}
}

// TestRunStopsOnPredicate pins RunUntil's evaluation points: it stops
// after the round that reaches the Progress target, and a target already
// reached costs zero rounds.
func TestRunStopsOnPredicate(t *testing.T) {
	g := graph.Path(2)
	p := NewProgress(5)
	tick := &FuncNode{ActFn: func(int64) Action { p.Add(1); return Listen }}
	e := NewNodeEngine(g, []Node{tick, silent{}})
	rounds, done := e.RunUntil(100, p)
	if !done || rounds != 5 {
		t.Fatalf("rounds = %d done = %v, want 5 true", rounds, done)
	}
	// Pre-satisfied target runs zero rounds.
	rounds, done = e.RunUntil(100, &Progress{})
	if rounds != 0 || !done || e.Metrics.Rounds != 5 {
		t.Fatalf("pre-satisfied: rounds = %d done = %v, engine rounds %d", rounds, done, e.Metrics.Rounds)
	}
}

// TestRunMaxRounds pins the budget cap: a target nothing advances stops
// RunUntil after exactly maxRounds rounds, not done.
func TestRunMaxRounds(t *testing.T) {
	g := graph.Path(2)
	e := NewNodeEngine(g, []Node{silent{}, silent{}})
	rounds, done := e.RunUntil(7, NewProgress(1))
	if rounds != 7 || done {
		t.Fatalf("rounds = %d done = %v, want 7 false", rounds, done)
	}
	if e.Metrics.Rounds != 7 {
		t.Fatalf("metrics rounds = %d", e.Metrics.Rounds)
	}
}

// TestRunNilStopNeverDone pins the unreachable target (target n+1, the
// "no sources" pin): RunUntil executes exactly maxRounds and reports
// done = false, including at a zero budget.
func TestRunNilStopNeverDone(t *testing.T) {
	g := graph.Path(2)
	tick := &FuncNode{}
	e := NewNodeEngine(g, []Node{tick, silent{}})
	never := NewProgress(int64(g.N()) + 1)
	tick.ActFn = func(int64) Action {
		if never.Count() < int64(g.N()) {
			never.Add(1)
		}
		return Listen
	}
	rounds, done := e.RunUntil(9, never)
	if rounds != 9 || done {
		t.Fatalf("unreachable target: rounds = %d done = %v, want 9 false", rounds, done)
	}
	// Zero-budget corner: no rounds, still not done.
	rounds, done = e.RunUntil(0, never)
	if rounds != 0 || done {
		t.Fatalf("unreachable target, zero budget: rounds = %d done = %v, want 0 false", rounds, done)
	}
}

func TestProgressCounting(t *testing.T) {
	p := NewProgress(3)
	if p.Done() {
		t.Fatal("fresh Progress with target 3 reports done")
	}
	p.Add(2)
	if p.Done() || p.Count() != 2 || p.Target() != 3 {
		t.Fatalf("count=%d target=%d done=%v", p.Count(), p.Target(), p.Done())
	}
	p.Add(1)
	if !p.Done() {
		t.Fatal("Progress not done at target")
	}
	// Unreachable-target encoding (e.g. "no sources"): never done.
	never := NewProgress(5)
	never.Add(4)
	if never.Done() {
		t.Fatal("4/5 reports done")
	}
	// Zero value: vacuously done, like a full scan over zero nodes.
	var zero Progress
	if !zero.Done() {
		t.Fatal("zero-value Progress should be done")
	}
}

func TestRunUntilMatchesRun(t *testing.T) {
	// RunUntil over a Progress must stop at exactly the round the target
	// is reached, including the evaluate-before-first and
	// budget-exhausted cases.
	mk := func() (*Engine, *Progress) {
		g := graph.Path(2)
		p := NewProgress(4)
		tick := &FuncNode{ActFn: func(int64) Action { p.Add(1); return Listen }}
		return NewNodeEngine(g, []Node{tick, silent{}}), p
	}
	e, p := mk()
	rounds, done := e.RunUntil(100, p)
	if rounds != 4 || !done {
		t.Fatalf("RunUntil: rounds = %d done = %v, want 4 true", rounds, done)
	}
	// Already satisfied: zero rounds.
	rounds, done = e.RunUntil(100, p)
	if rounds != 0 || !done {
		t.Fatalf("satisfied RunUntil: rounds = %d done = %v, want 0 true", rounds, done)
	}
	// Budget exhausted first.
	e2, p2 := mk()
	rounds, done = e2.RunUntil(2, p2)
	if rounds != 2 || done {
		t.Fatalf("budget RunUntil: rounds = %d done = %v, want 2 false", rounds, done)
	}
}

// fixedTx is a Protocol test double: the nodes in ids transmit 100+id in
// every round, and every reception is counted and its value summed into
// the listener's heard entry (nil heard: count only).
type fixedTx struct {
	ids   []int32
	heard []int64
	recvs int
}

func (p *fixedTx) ActBulk(_ int64, tx []int32, msgs []Message) ([]int32, []Message) {
	for _, id := range p.ids {
		tx = append(tx, id)
		msgs = append(msgs, Message{A: int64(100 + id)})
	}
	return tx, msgs
}

func (p *fixedTx) RecvBulk(_ int64, listeners, msgIdx []int32, msgs []Message) {
	p.recvs += len(listeners)
	if p.heard == nil {
		return
	}
	for k, v := range listeners {
		p.heard[v] += msgs[msgIdx[k]].A
	}
}

func TestBulkActorMatchesPerNode(t *testing.T) {
	// The same transmission pattern driven per-node through the adapter
	// and by a Protocol must produce identical deliveries, collisions and
	// received values.
	g := graph.Grid(4, 4)
	tx := []int32{0, 5, 10}
	heard := make([]int64, g.N())
	nodes := make([]Node, g.N())
	for i := range nodes {
		nodes[i] = &FuncNode{RecvFn: func(_ int64, m *Message) { heard[i] += m.A }}
	}
	for _, id := range tx {
		nodes[id] = &FuncNode{ActFn: func(int64) Action {
			return Transmit(Message{A: int64(100 + id)})
		}}
	}
	pe := NewNodeEngine(g, nodes)
	p := &fixedTx{ids: tx, heard: make([]int64, g.N())}
	be := NewEngine(g, p)
	for i := 0; i < 5; i++ {
		pe.Step()
		be.Step()
	}
	if pe.Metrics != be.Metrics {
		t.Fatalf("metrics differ: per-node %+v bulk %+v", pe.Metrics, be.Metrics)
	}
	for i := range heard {
		if heard[i] != p.heard[i] {
			t.Fatalf("node %d heard %d per-node vs %d bulk", i, heard[i], p.heard[i])
		}
	}
}

func TestEnginePanicsOnSizeMismatch(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewNodeEngine(graph.Path(3), []Node{silent{}})
}

func BenchmarkEngineRound(b *testing.B) {
	g := graph.Grid(64, 64)
	nodes := make([]Node, g.N())
	for i := range nodes {
		if i%7 == 0 {
			nodes[i] = &beacon{v: int64(i)}
		} else {
			nodes[i] = silent{}
		}
	}
	e := NewNodeEngine(g, nodes)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.Step()
	}
}
