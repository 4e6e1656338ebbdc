package radio

import (
	"slices"
	"testing"
	"testing/quick"

	"radionet/internal/graph"
	"radionet/internal/rng"
)

// scripted transmits according to a fixed per-round schedule and records
// the rounds it acts in and everything it hears. A Recv with a nil
// message fails t: the engine calls Recv only for a reception.
type scripted struct {
	t     *testing.T
	plan  []bool
	val   int64
	acts  []int64
	heard []int64 // message values (noise is 0)
}

func (s *scripted) Act(t int64) Action {
	s.acts = append(s.acts, t)
	if t < int64(len(s.plan)) && s.plan[t] {
		return Transmit(Message{A: s.val})
	}
	return Listen
}

func (s *scripted) Recv(round int64, msg *Message) {
	if msg == nil {
		s.t.Errorf("round %d: Recv with a nil message", round)
		return
	}
	s.heard = append(s.heard, msg.A)
}

// matchesBruteForce runs an engine over g for len(plans[v]) rounds — node
// v transmits its id+1 in the rounds its plan marks — at shard count k,
// with the fault plan fp installed when it is non-nil, and checks every
// node's Act rounds, its Recv log and the engine Metrics against a naive
// per-round reference, and returns the engine's marking-path counters.
// A listener appears in the reference's Recv log only for a delivery;
// scripted fails the test on a nil message. The reference models the
// overlay's three rules from the plan's parameters alone, deriving its
// own coin streams from the plan seed:
//
//   - crash: from its crash round on a node is dead — it is not asked to
//     act, does not transmit, hears nothing and is not counted;
//   - jam: each live jammer draws one coin per round from its jam stream
//     and, when the coin fires, transmits noise whatever its own action;
//   - loss: each delivery to a lossy node draws one coin from its loss
//     stream, and a lost delivery never reaches Recv (it still counts as a
//     delivery: the message was on the air).
func matchesBruteForce(t *testing.T, g *graph.Graph, plans [][]bool, k int, fp *FaultPlan) (ok bool, paths markPaths) {
	n := g.N()
	T := len(plans[0])
	nodes := make([]*scripted, n)
	rn := make([]Node, n)
	for v := 0; v < n; v++ {
		nodes[v] = &scripted{t: t, plan: plans[v], val: int64(v + 1)}
		rn[v] = nodes[v]
	}
	e := NewNodeEngine(g, rn)
	defer e.Close()
	e.SetFaults(fp)
	if k > 1 {
		e.SetShards(k)
	}
	for i := 0; i < T; i++ {
		e.Step()
	}
	// Brute-force reference: per-round actions, then per-listener outcomes.
	crashAt := make([]int64, n)
	jamP := make([]float64, n)
	lossP := make([]float64, n)
	jamRnd := make([]*rng.Rand, n)
	lossRnd := make([]*rng.Rand, n)
	for v := range crashAt {
		crashAt[v] = NoCrash
		if fp == nil {
			continue
		}
		crashAt[v] = fp.CrashRound(v)
		if fp.jamP != nil && fp.jamP[v] > 0 {
			jamP[v] = fp.jamP[v]
			jamRnd[v] = fp.base.Fork(jamStreamTag | uint64(v))
		}
		if fp.lossP != nil && fp.lossP[v] > 0 {
			lossP[v] = fp.lossP[v]
			lossRnd[v] = fp.base.Fork(lossStreamTag | uint64(v))
		}
	}
	wantActs := make([][]int64, n)
	wantHeard := make([][]int64, n)
	var want Metrics
	tx := make([]bool, n)
	txVal := make([]int64, n)
	for round := 0; round < T; round++ {
		want.Rounds++
		for v := 0; v < n; v++ {
			tx[v] = false
			if int64(round) >= crashAt[v] {
				continue
			}
			wantActs[v] = append(wantActs[v], int64(round))
			tx[v], txVal[v] = nodes[v].plan[round], nodes[v].val
			if jamRnd[v] != nil && jamRnd[v].Bernoulli(jamP[v]) {
				tx[v], txVal[v] = true, 0
			}
			if tx[v] {
				want.Transmissions++
			}
		}
		for v := 0; v < n; v++ {
			if tx[v] || int64(round) >= crashAt[v] {
				continue // transmitters and dead nodes do not listen
			}
			txNeighbors := 0
			var heard int64
			for _, w := range g.Neighbors(v) {
				if tx[w] {
					txNeighbors++
					heard = txVal[w]
				}
			}
			switch {
			case txNeighbors == 1:
				want.Deliveries++
				if lossRnd[v] != nil && lossRnd[v].Bernoulli(lossP[v]) {
					continue // faded: no Recv at all
				}
			case txNeighbors > 1:
				want.Collisions++
				continue // heard nothing: no Recv
			default:
				continue // silence: no Recv
			}
			wantHeard[v] = append(wantHeard[v], heard)
		}
	}
	for v := 0; v < n; v++ {
		if !slices.Equal(nodes[v].acts, wantActs[v]) {
			t.Logf("node %d acted in rounds %v, want %v (k=%d)", v, nodes[v].acts, wantActs[v], k)
			return false, markPaths{}
		}
		if !slices.Equal(nodes[v].heard, wantHeard[v]) {
			t.Logf("node %d heard %v, want %v (k=%d)", v, nodes[v].heard, wantHeard[v], k)
			return false, markPaths{}
		}
	}
	if e.Metrics != want {
		t.Logf("metrics %+v, want %+v (k=%d)", e.Metrics, want, k)
		return false, markPaths{}
	}
	return true, markPaths{saturated: e.saturated, banded: e.banded}
}

// markPaths counts the rounds an engine marked through its fast paths:
// saturated rounds stopped the unsharded marking pass early, and banded
// rounds were marked by the band layer's word loops.
type markPaths struct{ saturated, banded int64 }

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

// bruteForceGraph draws the graph of one brute-force case: a Gnp graph
// when band is false, else a band graph (graph.Bands), one of a path,
// a cycle, a grid and a hypercube of one or two dimensions. Node counts
// reach several words, so the shard split is real.
func bruteForceGraph(r *rng.Rand, nRaw uint8, band bool) *graph.Graph {
	n := int(nRaw)%180 + 2
	if !band {
		return graph.Gnp(n, 0.3, r.Fork(1))
	}
	switch nRaw % 4 {
	case 0:
		return graph.Path(n)
	case 1:
		return graph.Cycle(n + 1)
	case 2:
		rows := int(nRaw>>2)%12 + 1
		return graph.Grid(rows, max(2, n/rows))
	default:
		return graph.Hypercube(int(nRaw>>2)%2 + 1)
	}
}

// checkBandCases fails t unless every band case was marked through the
// band layer in each of its rounds (so the band family cannot silently
// fall back to CSR walks) and the band family was drawn at all.
func checkBandCases(t *testing.T, bandCases, bandRounds, banded int64) {
	t.Helper()
	t.Logf("%d band cases, %d of %d rounds band-marked", bandCases, banded, bandRounds)
	if bandCases == 0 || banded != bandRounds {
		t.Fatalf("%d band cases: %d of %d rounds band-marked, want all", bandCases, banded, bandRounds)
	}
}

// TestEngineMatchesBruteForce cross-checks the engine's word-parallel
// delivery kernel against a naive per-round reference on random graphs
// and band graphs (bruteForceGraph) with random transmission schedules
// at a random shard count (SetShards clamps it on tiny graphs).
func TestEngineMatchesBruteForce(t *testing.T) {
	master := rng.New(20240610)
	var bandCases, bandRounds, banded int64
	check := func(seed uint64, nRaw, rounds, shardRaw uint8, band bool) bool {
		r := master.Fork(seed)
		g := bruteForceGraph(r, nRaw, band)
		n := g.N()
		T := int(rounds%20) + 1
		k := int(shardRaw%4) + 1
		ok, paths := matchesBruteForce(t, g, randomPlans(r, n, T, 0.4), k, nil)
		if band {
			bandCases++
			bandRounds += int64(T)
			banded += paths.banded
		}
		return ok
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 120}); err != nil {
		t.Fatal(err)
	}
	checkBandCases(t, bandCases, bandRounds, banded)
}

// TestBandMarkingLoneTransmitters walks one transmitter at a time over
// every node of band graphs whose differences cross word boundaries
// (d = 1, 63, 64, 65, 128 and n-1), unsharded and at three shards, and
// checks each round against the brute-force reference. A lone
// transmitter is its round's lowest and highest, so every word a band
// direction's range has to reach, at either end, is tested.
func TestBandMarkingLoneTransmitters(t *testing.T) {
	graphs := []*graph.Graph{
		graph.Path(200),
		graph.Cycle(190),
		graph.Grid(3, 63),
		graph.Grid(3, 64),
		graph.Grid(3, 65),
		graph.Grid(2, 128),
	}
	for _, g := range graphs {
		n := g.N()
		plans := make([][]bool, n)
		for v := range plans {
			plans[v] = make([]bool, n)
			plans[v][v] = true
		}
		for _, k := range []int{1, 3} {
			ok, paths := matchesBruteForce(t, g, plans, k, nil)
			if !ok {
				t.Fatalf("%s k=%d: engine disagrees with the reference", g, k)
			}
			if paths.banded != int64(n) {
				t.Fatalf("%s k=%d: %d of %d rounds band-marked", g, k, paths.banded, n)
			}
		}
	}
}

// randomFaultPlan draws a plan over n nodes and T rounds: each node
// crashes with probability 0.15 at a round in [0, T], jams with
// probability 0.15 and loses receptions with probability 0.25, each at a
// probability in (0, 1).
func randomFaultPlan(r *rng.Rand, n, T int) *FaultPlan {
	p := NewFaultPlan(n, r.Uint64())
	for v := 0; v < n; v++ {
		if r.Bernoulli(0.15) {
			p.Crash(v, int64(r.Intn(T+1)))
		}
		if r.Bernoulli(0.15) {
			p.Jam(v, 0.05+0.9*r.Float64())
		}
		if r.Bernoulli(0.25) {
			p.Loss(v, 0.05+0.9*r.Float64())
		}
	}
	return p
}

// TestEngineMatchesBruteForceUnderFaults is the brute-force cross-check
// with the fault overlay installed: random graphs and band graphs,
// random transmission schedules and random crash/jam/loss plans, at
// shard counts 1 to 4. The
// reference models each fault rule independently of the engine (see
// matchesBruteForce), so dropping any one rule from the engine fails this
// test.
func TestEngineMatchesBruteForceUnderFaults(t *testing.T) {
	master := rng.New(20261018)
	var bandCases, bandRounds, banded int64
	check := func(seed uint64, nRaw, rounds, shardRaw uint8, band bool) bool {
		r := master.Fork(seed)
		g := bruteForceGraph(r, nRaw, band)
		n := g.N()
		T := int(rounds%20) + 1
		k := int(shardRaw%4) + 1
		ok, paths := matchesBruteForce(t, g, randomPlans(r, n, T, 0.3), k, randomFaultPlan(r.Fork(2), n, T))
		if band {
			bandCases++
			bandRounds += int64(T)
			banded += paths.banded
		}
		return ok
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 120}); err != nil {
		t.Fatal(err)
	}
	checkBandCases(t, bandCases, bandRounds, banded)
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

// straddlingGnp draws a Gnp graph that mixes both marking paths: n in
// [100, 300] and p in [0.2, 0.6], with p drawn from the part of that
// range that puts the mean degree (n-1)p within 25% of
// graph.DenseThreshold(n), so degrees straddle the threshold.
func straddlingGnp(r *rng.Rand, nRaw uint16, pRaw uint8) *graph.Graph {
	n := int(nRaw)%201 + 100
	thr := float64(graph.DenseThreshold(n))
	plo := max(0.2, 0.75*thr/float64(n-1))
	phi := min(0.6, 1.25*thr/float64(n-1))
	p := plo + (phi-plo)*float64(pRaw)/255
	return graph.Gnp(n, p, r.Fork(1))
}

// TestEngineMatchesBruteForceDenseRows is the brute-force cross-check on
// graphs that mix both marking paths in one round (straddlingGnp).
// Transmit probabilities run from a few transmitters per neighborhood
// (mostly singleton deliveries resolved through dense rows) to many
// (mostly collisions), at a random shard count. The test counts its mixed
// cases and fails if fewer than half of them hold both kinds of row, so a
// change to the threshold cannot silently turn it into a CSR-only check.
func TestEngineMatchesBruteForceDenseRows(t *testing.T) {
	master := rng.New(20261017)
	cases, mixed := 0, 0
	check := func(seed uint64, nRaw uint16, pRaw, qRaw, rounds, shardRaw uint8) bool {
		r := master.Fork(seed)
		g := straddlingGnp(r, nRaw, pRaw)
		n := g.N()
		q := 0.005 + 0.075*float64(qRaw)/255
		T := int(rounds%12) + 1
		k := int(shardRaw%4) + 1
		cases++
		if d, c := rowKinds(g); len(d) > 0 && len(c) > 0 {
			mixed++
		}
		ok, _ := matchesBruteForce(t, g, randomPlans(r, n, T, q), k, nil)
		return ok
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
	t.Logf("%d of %d cases mix dense and CSR rows", mixed, cases)
	if 2*mixed < cases {
		t.Fatalf("only %d of %d cases mix dense and CSR rows, want at least half", mixed, cases)
	}
}

// TestEngineMatchesBruteForceSaturated is the dense-row cross-check
// under a crash + loss + jam fault plan at transmit probabilities from
// 0.005 to 0.9. At the high end the dense rows often leave every live
// listener collided and the unsharded marking pass stops early; at the
// low end a jammer is often the only transmitter in its word, the case
// in which resolve needs the jam overlay to have listed that word. Each case runs at
// k = 1..4 (a run consumes its fault plan, so each gets a fresh one from
// the same seed). Only the unsharded pass has the exit; the test fails if
// it fired at k = 1 in fewer than a third of the cases, so it cannot
// silently stop exercising the exit.
func TestEngineMatchesBruteForceSaturated(t *testing.T) {
	master := rng.New(20261019)
	cases, fired := 0, 0
	check := func(seed uint64, nRaw uint16, pRaw, qRaw, rounds uint8) bool {
		r := master.Fork(seed)
		g := straddlingGnp(r, nRaw, pRaw)
		n := g.N()
		q := 0.005 + 0.895*float64(qRaw)/255
		T := int(rounds%12) + 1
		plans := randomPlans(r, n, T, q)
		cases++
		for k := 1; k <= 4; k++ {
			ok, paths := matchesBruteForce(t, g, plans, k, randomFaultPlan(r.Fork(2), n, T))
			if !ok {
				return false
			}
			if k == 1 && paths.saturated > 0 {
				fired++
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
	t.Logf("the saturation exit fired in %d of %d cases", fired, cases)
	if 3*fired < cases {
		t.Fatalf("the saturation exit fired in only %d of %d cases, want at least a third", fired, cases)
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
		nodes[v] = &scripted{t: t, plan: plan, val: 1}
	}
	e := NewNodeEngine(g, nodes)
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
