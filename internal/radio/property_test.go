package radio

import (
	"testing"
	"testing/quick"

	"radionet/internal/graph"
	"radionet/internal/rng"
)

// scripted transmits according to a fixed per-round schedule and records
// everything it hears.
type scripted struct {
	plan  []bool
	val   int64
	heard []int64 // -1 silence, -2 collision-detected, else message value
}

func (s *scripted) Act(t int64) Action {
	if t < int64(len(s.plan)) && s.plan[t] {
		return Transmit(Message{A: s.val})
	}
	return Listen
}

func (s *scripted) Recv(_ int64, msg *Message, collided bool) {
	switch {
	case msg != nil:
		s.heard = append(s.heard, msg.A)
	case collided:
		s.heard = append(s.heard, -2)
	default:
		s.heard = append(s.heard, -1)
	}
}

// matchesBruteForce runs an engine over g for len(plans[v]) rounds — node
// v transmits its id+1 in the rounds its plan marks — at shard count k,
// and checks every node's Recv log against a naive per-round reference.
func matchesBruteForce(t *testing.T, g *graph.Graph, plans [][]bool, k int, cd bool) bool {
	n := g.N()
	T := len(plans[0])
	nodes := make([]*scripted, n)
	rn := make([]Node, n)
	for v := 0; v < n; v++ {
		nodes[v] = &scripted{plan: plans[v], val: int64(v + 1)}
		rn[v] = nodes[v]
	}
	e := NewEngine(g, rn)
	defer e.Close()
	e.CollisionDetection = cd
	if k > 1 {
		e.SetShards(k)
	}
	for i := 0; i < T; i++ {
		e.Step()
	}
	// Brute-force reference.
	for v := 0; v < n; v++ {
		got := nodes[v].heard
		gi := 0
		for round := 0; round < T; round++ {
			if nodes[v].plan[round] {
				continue // transmitters do not listen
			}
			txNeighbors := 0
			var txVal int64
			for _, w := range g.Neighbors(v) {
				if nodes[w].plan[round] {
					txNeighbors++
					txVal = nodes[w].val
				}
			}
			var want int64
			switch {
			case txNeighbors == 1:
				want = txVal
			case txNeighbors > 1 && cd:
				want = -2
			default:
				want = -1
			}
			if gi >= len(got) || got[gi] != want {
				t.Logf("node %d round %d: got %v want %d (cd=%v, k=%d)", v, round, got, want, cd, k)
				return false
			}
			gi++
		}
		if gi != len(got) {
			return false
		}
	}
	return true
}

// randomPlans draws an n x T transmit schedule, each slot on with
// probability q.
func randomPlans(r *rng.Rand, n, T int, q float64) [][]bool {
	plans := make([][]bool, n)
	for v := range plans {
		plans[v] = make([]bool, T)
		for i := range plans[v] {
			plans[v][i] = r.Bernoulli(q)
		}
	}
	return plans
}

// TestEngineMatchesBruteForce cross-checks the engine's word-parallel
// delivery kernel against a naive per-round reference on random graphs
// with random transmission schedules, in both model variants and at a
// random shard count (node counts reach several words so the shard split
// is real, and SetShards clamps it on tiny graphs).
func TestEngineMatchesBruteForce(t *testing.T) {
	master := rng.New(20240610)
	check := func(seed uint64, nRaw, rounds, shardRaw uint8, cd bool) bool {
		r := master.Fork(seed)
		n := int(nRaw)%180 + 2
		T := int(rounds%20) + 1
		k := int(shardRaw%4) + 1
		g := graph.Gnp(n, 0.3, r.Fork(1))
		return matchesBruteForce(t, g, randomPlans(r, n, T, 0.4), k, cd)
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// rowKinds splits g's nodes by marking path: dense adjacency rows
// (graph.AdjBits, degree at or above the threshold) and CSR neighbor walks.
func rowKinds(g *graph.Graph) (dense, csr []int32) {
	d := g.DenseAdj()
	for v := 0; v < g.N(); v++ {
		if d.Row(v) != nil {
			dense = append(dense, int32(v))
		} else {
			csr = append(csr, int32(v))
		}
	}
	return dense, csr
}

// TestEngineMatchesBruteForceDenseRows is the brute-force cross-check on
// graphs that mix both marking paths in one round: n in [100, 300] and p
// in [0.2, 0.6], with p drawn from the part of that range that puts the
// mean degree (n-1)p within 25% of graph.DenseThreshold(n), so degrees
// straddle the threshold. Transmit probabilities run from a few
// transmitters per neighborhood (mostly singleton deliveries resolved
// through dense rows) to many (mostly collisions), at a random shard
// count, with collision detection on and off. The test counts its mixed
// cases and fails if fewer than half of them hold both kinds of row, so a
// change to the threshold cannot silently turn it into a CSR-only check.
func TestEngineMatchesBruteForceDenseRows(t *testing.T) {
	master := rng.New(20261017)
	cases, mixed := 0, 0
	check := func(seed uint64, nRaw uint16, pRaw, qRaw, rounds, shardRaw uint8, cd bool) bool {
		r := master.Fork(seed)
		n := int(nRaw)%201 + 100
		thr := float64(graph.DenseThreshold(n))
		plo := max(0.2, 0.75*thr/float64(n-1))
		phi := min(0.6, 1.25*thr/float64(n-1))
		p := plo + (phi-plo)*float64(pRaw)/255
		q := 0.005 + 0.075*float64(qRaw)/255
		T := int(rounds%12) + 1
		k := int(shardRaw%4) + 1
		g := graph.Gnp(n, p, r.Fork(1))
		cases++
		if d, c := rowKinds(g); len(d) > 0 && len(c) > 0 {
			mixed++
		}
		return matchesBruteForce(t, g, randomPlans(r, n, T, q), k, cd)
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
	t.Logf("%d of %d cases mix dense and CSR rows", mixed, cases)
	if 2*mixed < cases {
		t.Fatalf("only %d of %d cases mix dense and CSR rows, want at least half", mixed, cases)
	}
}

// TestMetricsConsistency verifies the invariant deliveries + collisions
// <= listener-rounds and transmissions == sum of plans.
func TestMetricsConsistency(t *testing.T) {
	r := rng.New(7)
	g := graph.Gnp(30, 0.2, r)
	n := g.N()
	nodes := make([]Node, n)
	planned := int64(0)
	const T = 50
	for v := 0; v < n; v++ {
		plan := make([]bool, T)
		for i := range plan {
			plan[i] = r.Bernoulli(0.3)
			if plan[i] {
				planned++
			}
		}
		nodes[v] = &scripted{plan: plan, val: 1}
	}
	e := NewEngine(g, nodes)
	for i := 0; i < T; i++ {
		e.Step()
	}
	m := e.Metrics
	if m.Transmissions != planned {
		t.Fatalf("transmissions %d, want %d", m.Transmissions, planned)
	}
	listenerRounds := int64(n)*T - planned
	if m.Deliveries+m.Collisions > listenerRounds {
		t.Fatalf("deliveries %d + collisions %d exceed listener rounds %d",
			m.Deliveries, m.Collisions, listenerRounds)
	}
}
