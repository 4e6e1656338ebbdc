package radio

import (
	"testing"

	"radionet/internal/graph"
)

// TestChainHooksBothObserveEveryRound is the hook-clobbering regression
// test: two hooks chained onto Hook (the trace-then-metrics pattern)
// must both observe every executed round with identical arguments.
func TestChainHooksBothObserveEveryRound(t *testing.T) {
	g := graph.Path(4)
	nodes := make([]Node, g.N())
	for i := range nodes {
		i := i
		nodes[i] = &FuncNode{ActFn: func(round int64) Action {
			if int64(i) == round%int64(len(nodes)) {
				return Transmit(Message{A: int64(i)})
			}
			return Listen
		}}
	}
	e := NewNodeEngine(g, nodes)

	type obs struct {
		round int64
		tx    int
		del   int
		col   int
	}
	var a, b []obs
	e.Hook = ChainHooks(e.Hook, func(round int64, tx []int32, deliveries, collisions int) {
		a = append(a, obs{round, len(tx), deliveries, collisions})
	})
	e.Hook = ChainHooks(e.Hook, func(round int64, tx []int32, deliveries, collisions int) {
		b = append(b, obs{round, len(tx), deliveries, collisions})
	})

	const rounds = 10
	for i := 0; i < rounds; i++ {
		e.Step()
	}
	if len(a) != rounds || len(b) != rounds {
		t.Fatalf("hooks saw %d/%d rounds, want %d each", len(a), len(b), rounds)
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("round %d: hook observations differ: %+v vs %+v", i, a[i], b[i])
		}
		if a[i].round != int64(i) {
			t.Fatalf("hook round %d out of order: %+v", i, a[i])
		}
	}
}

func TestChainHooksNilHandling(t *testing.T) {
	if ChainHooks() != nil {
		t.Error("ChainHooks() != nil")
	}
	if ChainHooks(nil, nil) != nil {
		t.Error("ChainHooks(nil, nil) != nil")
	}
	calls := 0
	h := func(int64, []int32, int, int) { calls++ }
	single := ChainHooks(nil, h, nil)
	if single == nil {
		t.Fatal("single live hook dropped")
	}
	single(0, nil, 0, 0)
	if calls != 1 {
		t.Fatalf("single hook called %d times, want 1", calls)
	}
	double := ChainHooks(h, nil, h)
	double(1, nil, 0, 0)
	if calls != 3 {
		t.Fatalf("chained hooks called %d more times, want 2", calls-1)
	}
}
