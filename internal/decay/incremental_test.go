package decay

import (
	"math"
	"testing"

	"radionet/internal/graph"
	"radionet/internal/radio"
	"radionet/internal/rng"
)

// doneFullScan is the O(n) reference implementation of Done, the oracle
// of the equivalence tests and the termination-checking benchmarks.
func (b *Broadcast) doneFullScan() bool {
	if b.tr.counted != nil {
		if b.tr.prog.Target() > int64(len(b.nodes)) {
			return false // the no-sources pin (target n+1): never done
		}
		// Survivor-scoped: every counted node informed of trueMax.
		for i := range b.nodes {
			if !b.tr.counted[i] {
				continue
			}
			if nd := &b.nodes[i]; !nd.informed() || nd.val != b.tr.trueMax {
				return false
			}
		}
		return true
	}
	max := int64(0)
	first := true
	for i := range b.nodes {
		if nd := &b.nodes[i]; nd.informed() && (first || nd.val > max) {
			max = nd.val
			first = false
		}
	}
	if first {
		return false
	}
	for i := range b.nodes {
		if nd := &b.nodes[i]; !nd.informed() || nd.val != max {
			return false
		}
	}
	return true
}

// Prob must stay a finite, positive-or-zero, non-increasing probability
// for every step, including shifts past the int64 range (the seed
// overflowed at s >= 62, yielding ±Inf via a wrapped shift).
func TestProbClampedForLargeSteps(t *testing.T) {
	prev := 1.0
	for s := 0; s < 1200; s++ {
		p := Prob(s)
		if math.IsNaN(p) || math.IsInf(p, 0) || p < 0 || p > 0.5 {
			t.Fatalf("Prob(%d) = %v out of range", s, p)
		}
		if p > prev {
			t.Fatalf("Prob(%d) = %v > Prob(%d) = %v: not monotone", s, p, s-1, prev)
		}
		prev = p
	}
	// Exact powers of two while representable.
	if got := Prob(61); got != math.Ldexp(1, -62) {
		t.Fatalf("Prob(61) = %v, want 2^-62", got)
	}
	if got := Prob(62); got != math.Ldexp(1, -63) {
		t.Fatalf("Prob(62) = %v, want 2^-63", got)
	}
	if got := Prob(63); got != math.Ldexp(1, -64) {
		t.Fatalf("Prob(63) = %v, want 2^-64", got)
	}
	// Far past the subnormal range the probability degrades to exactly 0.
	if got := Prob(2000); got != 0 {
		t.Fatalf("Prob(2000) = %v, want 0", got)
	}
}

// A huge Config.Levels (the trigger for the old overflow) must not wedge
// the protocol: the phase spends its tail in ~zero-probability steps, but
// early steps still make progress.
func TestBroadcastWithHugeLevels(t *testing.T) {
	g := graph.Path(8)
	bc := NewBroadcast(g, g.DiameterEstimate(), Config{Levels: 80}, 3, map[int]int64{0: 9})
	if !bc.Run(1 << 16).Done {
		t.Fatalf("broadcast with Levels=80 incomplete: %d/%d informed", bc.InformedCount(), g.N())
	}
}

// equivalenceGraphs builds the randomized sparse topologies the
// incremental-vs-full-scan tests sweep.
func equivalenceGraphs(seed uint64) []*graph.Graph {
	r := rng.New(seed)
	return []*graph.Graph{
		graph.RandomTree(60, r.Fork(1)),
		graph.Gnp(80, 0.05, r.Fork(2)),
		graph.Grid(6, 9),
		graph.PathOfCliques(6, 4),
	}
}

// Incremental Done must agree with the O(n) reference scan after every
// single round, across graphs, seeds, source patterns and both engine
// paths (bulk and per-node).
func TestDoneMatchesFullScanEveryRound(t *testing.T) {
	for seed := uint64(1); seed <= 3; seed++ {
		for gi, g := range equivalenceGraphs(seed) {
			for _, ref := range []bool{false, true} {
				sources := map[int]int64{0: 9}
				if gi%2 == 1 { // multi-source with distinct values
					sources = map[int]int64{0: 5, g.N() / 2: 9, g.N() - 1: 2}
				}
				bc := NewBroadcast(g, g.DiameterEstimate(), Config{}, seed, sources)
				if ref {
					perNode(bc, nil)
				}
				for r := 0; r < 1<<14; r++ {
					inc, full := bc.Done(), bc.doneFullScan()
					if inc != full {
						t.Fatalf("%s seed=%d per-node=%v round %d: incremental Done=%v, full scan=%v",
							g, seed, ref, r, inc, full)
					}
					if full {
						break
					}
					bc.Engine.Step()
				}
				if !bc.doneFullScan() {
					t.Fatalf("%s seed=%d per-node=%v: broadcast did not complete", g, seed, ref)
				}
			}
		}
	}
}

// The bulk path (ActBulk + RecvBulk) must match the per-node path round
// for round: same transmitter sets and delivery/collision counts in every
// round, not just at completion.
func TestBulkMatchesPerNodeRoundForRound(t *testing.T) {
	for seed := uint64(1); seed <= 3; seed++ {
		for gi, g := range equivalenceGraphs(seed) {
			sources := map[int]int64{0: 9}
			if gi%2 == 1 {
				sources = map[int]int64{0: 5, g.N() / 2: 9}
			}
			bb := NewBroadcast(g, g.DiameterEstimate(), Config{}, seed, sources)
			pb := perNode(NewBroadcast(g, g.DiameterEstimate(), Config{}, seed, sources), nil)
			type round struct {
				tx         []int32
				deliveries int
				collisions int
			}
			var bl, pl round
			bb.Engine.Hook = func(_ int64, tx []int32, d, c int) {
				bl = round{append([]int32(nil), tx...), d, c}
			}
			pb.Engine.Hook = func(_ int64, tx []int32, d, c int) {
				pl = round{append([]int32(nil), tx...), d, c}
			}
			for r := 0; r < 1<<14 && !(bb.Done() && pb.Done()); r++ {
				bb.Engine.Step()
				pb.Engine.Step()
				if bl.deliveries != pl.deliveries || bl.collisions != pl.collisions || len(bl.tx) != len(pl.tx) {
					t.Fatalf("%s seed=%d round %d: bulk (%d tx, %d/%d) vs per-node (%d tx, %d/%d)",
						g, seed, r, len(bl.tx), bl.deliveries, bl.collisions,
						len(pl.tx), pl.deliveries, pl.collisions)
				}
				for i := range bl.tx {
					if bl.tx[i] != pl.tx[i] {
						t.Fatalf("%s seed=%d round %d: transmitter %d differs: %d vs %d",
							g, seed, r, i, bl.tx[i], pl.tx[i])
					}
				}
			}
			if !bb.Done() || !pb.Done() {
				t.Fatalf("%s seed=%d: broadcast incomplete", g, seed)
			}
		}
	}
}

// The per-node path and the bulk path must stay bit-identical: same
// completion round, same metrics, same final values.
func TestBulkAndPerNodePathsIdentical(t *testing.T) {
	for seed := uint64(1); seed <= 3; seed++ {
		for _, g := range equivalenceGraphs(seed) {
			run := func(ref bool) (int64, radio.Metrics, []int64) {
				bc := NewBroadcast(g, g.DiameterEstimate(), Config{}, seed, map[int]int64{0: 9})
				if ref {
					perNode(bc, nil)
				}
				res := bc.Run(1 << 20)
				rounds, done := res.Rounds, res.Done
				if !done {
					t.Fatalf("%s seed=%d: incomplete", g, seed)
				}
				return rounds, bc.Engine.Metrics, bc.Values()
			}
			r1, m1, v1 := run(false)
			r2, m2, v2 := run(true)
			if r1 != r2 || m1 != m2 {
				t.Fatalf("%s seed=%d: bulk (%d rounds, %+v) vs per-node (%d rounds, %+v)",
					g, seed, r1, m1, r2, m2)
			}
			for i := range v1 {
				if v1[i] != v2[i] {
					t.Fatalf("%s seed=%d node %d: bulk val %d vs per-node %d", g, seed, i, v1[i], v2[i])
				}
			}
		}
	}
}

// InformedCount must agree with a scan of Values at every round.
func TestInformedCountIncremental(t *testing.T) {
	g := graph.RandomTree(80, rng.New(5))
	bc := NewBroadcast(g, g.DiameterEstimate(), Config{}, 2, map[int]int64{3: 7})
	for r := 0; r < 1<<14 && !bc.Done(); r++ {
		want := 0
		for _, v := range bc.Values() {
			if v >= 0 {
				want++
			}
		}
		if got := bc.InformedCount(); got != want {
			t.Fatalf("round %d: InformedCount = %d, scan = %d", r, got, want)
		}
		bc.Engine.Step()
	}
}

// Negative source values collide with the uninformed sentinel and must be
// rejected loudly instead of silently never propagating.
func TestNegativeSourcePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for negative source value")
		}
	}()
	NewBroadcast(graph.Path(4), 3, Config{}, 1, map[int]int64{0: -5})
}

// No sources: Done must stay false forever (the seed full scan's "no
// informed node" case), not trivially complete.
func TestDoneWithoutSources(t *testing.T) {
	g := graph.Path(4)
	bc := NewBroadcast(g, g.DiameterEstimate(), Config{}, 1, nil)
	res := bc.Run(64)
	rounds, done := res.Rounds, res.Done
	if done || rounds != 64 {
		t.Fatalf("sourceless broadcast: rounds = %d done = %v, want 64 false", rounds, done)
	}
	if bc.doneFullScan() {
		t.Fatal("full scan claims completion without sources")
	}
}
