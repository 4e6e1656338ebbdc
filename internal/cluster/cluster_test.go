package cluster

import (
	"math"
	"slices"
	"testing"
	"testing/quick"

	"radionet/internal/graph"
	"radionet/internal/rng"
)

func testGraphs(t *testing.T) []*graph.Graph {
	t.Helper()
	r := rng.New(1000)
	return []*graph.Graph{
		graph.Path(64),
		graph.Cycle(50),
		graph.Grid(8, 12),
		graph.PathOfCliques(8, 6),
		graph.BalancedTree(3, 4),
		graph.Gnp(120, 0.04, r.Fork(1)),
		graph.RandomGeometric(150, 0.12, r.Fork(2)),
	}
}

func TestPartitionValidates(t *testing.T) {
	for _, g := range testGraphs(t) {
		for _, beta := range []float64{0.05, 0.2, 0.5, 1.5} {
			for seed := uint64(0); seed < 3; seed++ {
				p := Partition(g, beta, rng.New(seed))
				if err := p.Validate(); err != nil {
					t.Fatalf("%v beta=%v seed=%d: %v", g, beta, seed, err)
				}
			}
		}
	}
}

func TestPartitionPanicsOnBadBeta(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	Partition(graph.Path(4), 0, rng.New(1))
}

func TestPartitionDeterministic(t *testing.T) {
	g := graph.Grid(10, 10)
	p1 := Partition(g, 0.3, rng.New(7))
	var scr Scratch
	PartitionScratch(graph.Path(300), 0.1, rng.New(8), &scr) // leave stale state behind
	p2 := PartitionScratch(g, 0.3, rng.New(7), &scr)
	for v := range p1.Center {
		if p1.Center[v] != p2.Center[v] || p1.Parent[v] != p2.Parent[v] || p1.Dist[v] != p2.Dist[v] {
			t.Fatalf("node %d: (center, parent, dist) = (%d, %d, %d) then (%d, %d, %d) across identical runs",
				v, p1.Center[v], p1.Parent[v], p1.Dist[v], p2.Center[v], p2.Parent[v], p2.Dist[v])
		}
	}
}

// TestPartitionMatchesHeapOracle pins the two-queue Partition to the
// heap-based reference: Center, Dist and Delta are identical. Parent may
// differ from the oracle's where several neighbours tie; Validate checks
// that every Parent[v] is a neighbour in v's cluster with Dist[v]-1.
func TestPartitionMatchesHeapOracle(t *testing.T) {
	r := rng.New(2024)
	graphs := append(testGraphs(t),
		graph.RandomGeometric(2000, 0.05, r.Fork(1)),
		graph.Gnp(1024, 0.05, r.Fork(2)),
		graph.Grid(8, 128),
		graph.RandomTree(5000, r.Fork(3)),
	)
	var scr Scratch
	for _, g := range graphs {
		for _, beta := range []float64{1.5, 0.5, 0.2, 1.0 / 32} {
			for seed := uint64(0); seed < 20; seed++ {
				want := heapPartition(g, beta, rng.New(seed))
				got := PartitionScratch(g, beta, rng.New(seed), &scr)
				if err := got.Validate(); err != nil {
					t.Fatalf("%v beta=%v seed=%d: %v", g, beta, seed, err)
				}
				for v := 0; v < g.N(); v++ {
					if got.Center[v] != want.Center[v] || got.Dist[v] != want.Dist[v] || got.Delta[v] != want.Delta[v] {
						t.Fatalf("%v beta=%v seed=%d node %d: (center, dist, delta) = (%d, %d, %v), oracle (%d, %d, %v)",
							g, beta, seed, v, got.Center[v], got.Dist[v], got.Delta[v],
							want.Center[v], want.Dist[v], want.Delta[v])
					}
				}
			}
		}
	}
}

// TestPartitionMatchesFullSort pins the lazily sorted Partition to
// fullSortPartition, which sorts every source up front and scans the
// neighbours of every popped node: Center, Parent, Dist and Delta are
// byte-identical. The graphs are the perfbench shapes plus a path, built
// largest first so one Scratch is reused on smaller graphs. β = 1e-4
// spreads the keys over more than n, so the bucket width widens; β = 1e6
// puts every key in one bucket and makes every node its own center;
// β = 1e-308 overflows some δ to +Inf.
func TestPartitionMatchesFullSort(t *testing.T) {
	r := rng.New(2025)
	graphs := []*graph.Graph{
		graph.RandomGeometric(10000, 0.03, r.Fork(1)),
		graph.Gnp(4096, 0.05, r.Fork(2)),
		graph.Grid(8, 512),
		graph.Path(1000),
	}
	betas := []float64{1e-4, 1e6, 1e-308}
	for j := 1; j <= 8; j++ {
		betas = append(betas, math.Ldexp(1, -j))
	}
	var scr Scratch
	for _, g := range graphs {
		for _, beta := range betas {
			for seed := uint64(1); seed <= 2; seed++ {
				want := fullSortPartition(g, beta, rng.New(seed))
				got := PartitionScratch(g, beta, rng.New(seed), &scr)
				if !slices.Equal(got.Center, want.Center) || !slices.Equal(got.Parent, want.Parent) ||
					!slices.Equal(got.Dist, want.Dist) ||
					!slices.EqualFunc(got.Delta, want.Delta, func(a, b float64) bool {
						return math.Float64bits(a) == math.Float64bits(b)
					}) {
					t.Fatalf("%v beta=%v seed=%d: result differs from the full-sort build", g, beta, seed)
				}
			}
		}
	}
}

func TestClusterCountMonotoneInBeta(t *testing.T) {
	// Larger beta => smaller shifts => more clusters (on average). Compare
	// extremes, which are far enough apart to be deterministic in practice.
	g := graph.Grid(15, 15)
	lo := Partition(g, 0.02, rng.New(3)).NumClusters()
	hi := Partition(g, 2.0, rng.New(3)).NumClusters()
	if lo >= hi {
		t.Fatalf("NumClusters: beta=0.02 gives %d, beta=2.0 gives %d; want increase", lo, hi)
	}
}

func TestHugeBetaSingletons(t *testing.T) {
	// With beta so large that all shifts are ~0, every node should be
	// (nearly) its own cluster and almost every edge cut.
	g := graph.Grid(6, 6)
	p := Partition(g, 50, rng.New(5))
	if p.NumClusters() < g.N()/2 {
		t.Fatalf("beta=50 produced only %d clusters on %d nodes", p.NumClusters(), g.N())
	}
}

// TestStrongRadiusBound is the Lemma 2.1a check: strong diameter is
// O(log n / beta) whp. We verify radius <= c * ln(n)/beta with c = 4
// across seeds (failure probability is tiny, and runs are deterministic).
func TestStrongRadiusBound(t *testing.T) {
	for _, g := range testGraphs(t) {
		n := float64(g.N())
		for _, beta := range []float64{0.1, 0.3} {
			for seed := uint64(0); seed < 5; seed++ {
				p := Partition(g, beta, rng.New(100+seed))
				bound := 4 * math.Log(n) / beta
				if r := float64(p.MaxStrongRadius()); r > bound {
					t.Errorf("%v beta=%v seed=%d: radius %v > bound %v", g, beta, seed, r, bound)
				}
			}
		}
	}
}

// TestCutFractionBound is the Lemma 2.1b check: each edge is cut with
// probability O(beta).
func TestCutFractionBound(t *testing.T) {
	g := graph.Grid(20, 20)
	for _, beta := range []float64{0.02, 0.05, 0.1, 0.2} {
		total := 0.0
		const trials = 10
		for seed := uint64(0); seed < trials; seed++ {
			total += Partition(g, beta, rng.New(200+seed)).CutFraction()
		}
		avg := total / trials
		// MPX gives P[cut] <= beta per unit-length edge (up to small
		// constants); allow 3x slack.
		if avg > 3*beta {
			t.Errorf("beta=%v: avg cut fraction %v > %v", beta, avg, 3*beta)
		}
	}
}

func TestClustersWithin(t *testing.T) {
	g := graph.Path(20)
	p := Partition(g, 0.3, rng.New(11))
	// Distance 0 sees exactly 1 cluster; the whole graph sees them all.
	if got := p.ClustersWithin(10, 0); got != 1 {
		t.Fatalf("ClustersWithin(10,0) = %d", got)
	}
	if got := p.ClustersWithin(0, 19); got != p.NumClusters() {
		t.Fatalf("ClustersWithin(whole graph) = %d, want %d", got, p.NumClusters())
	}
}

func TestClustersPartitionNodes(t *testing.T) {
	g := graph.Grid(9, 9)
	p := Partition(g, 0.2, rng.New(13))
	// Every node names a center, and every center is a member of its own
	// cluster, at distance 0 from itself.
	if len(p.Center) != g.N() {
		t.Fatalf("clusters cover %d of %d nodes", len(p.Center), g.N())
	}
	for v, c := range p.Center {
		if p.Center[c] != c || p.Dist[c] != 0 {
			t.Fatalf("node %d: center %d is not the center of its own cluster", v, c)
		}
	}
}

func TestJRange(t *testing.T) {
	tests := []struct {
		d                int
		wantMin, wantMax int
	}{
		{1, 1, 1},
		{1024, 2, 8},
		{1 << 20, 5, 15},
	}
	for _, tc := range tests {
		if jmin, jmax := JRange(tc.d); jmin != tc.wantMin || jmax != tc.wantMax {
			t.Errorf("JRange(%d) = (%d,%d), want (%d,%d)", tc.d, jmin, jmax, tc.wantMin, tc.wantMax)
		}
	}
}

func TestQuickPartitionInvariants(t *testing.T) {
	r := rng.New(31337)
	cfg := &quick.Config{MaxCount: 20}
	if err := quick.Check(func(seed uint64, nn, bb uint8) bool {
		n := int(nn%60) + 5
		beta := float64(bb%40)/40 + 0.05
		g := graph.Gnp(n, 0.1, r.Fork(seed))
		p := Partition(g, beta, r.Fork(seed+1))
		return p.Validate() == nil
	}, cfg); err != nil {
		t.Fatal(err)
	}
}

// TestTheorem22Empirical checks the paper's central clustering claim: with
// beta = 2^-j and j random in the fine range, for a fixed node the expected
// distance to its cluster center is O(log n/(beta·log D)) for most j.
func TestTheorem22Empirical(t *testing.T) {
	if testing.Short() {
		t.Skip("statistical test")
	}
	g := graph.Path(512) // D = 511
	d := 511
	n := float64(g.N())
	logD := math.Log2(float64(d))
	v := 256
	jmin, jmax := JRange(d)
	goodJ := 0
	for j := jmin; j <= jmax; j++ {
		beta := math.Pow(2, -float64(j))
		const trials = 40
		sum := 0.0
		for s := 0; s < trials; s++ {
			p := Partition(g, beta, rng.New(uint64(7000+100*j+s)))
			sum += float64(p.Dist[v])
		}
		mean := sum / trials
		bound := 5 * math.Log2(n) / (beta * logD)
		if mean <= bound {
			goodJ++
		}
	}
	frac := float64(goodJ) / float64(jmax-jmin+1)
	if frac < 0.55 {
		t.Errorf("only %.2f of j values satisfied the Theorem 2.2 bound, want >= 0.55", frac)
	}
}

func TestDistributedPartition(t *testing.T) {
	r := rng.New(555)
	graphs := []*graph.Graph{
		graph.Path(40),
		graph.Grid(7, 7),
		graph.PathOfCliques(5, 5),
		graph.Gnp(60, 0.08, r),
	}
	for _, g := range graphs {
		d := NewDistributed(g, 0.25, 42)
		run := d.Run(0)
		if !run.Done {
			t.Fatalf("%v: distributed partition incomplete after %d rounds", g, run.Rounds)
		}
		if run.Rounds > d.MaxPhases*d.PhaseLen {
			t.Fatalf("%v: exceeded phase budget", g)
		}
		if err := d.Result().Validate(); err != nil {
			t.Fatalf("%v: invalid distributed partition: %v", g, err)
		}
	}
}

func TestDistributedMatchesCentralizedScale(t *testing.T) {
	// The distributed protocol should produce clusters of the same scale
	// as the centralized one: strong radius within the same O(log n/beta)
	// envelope.
	g := graph.Grid(10, 10)
	beta := 0.3
	c := Partition(g, beta, rng.New(1))
	d := NewDistributed(g, beta, 1)
	if !d.Run(0).Done {
		t.Fatal("distributed run incomplete")
	}
	res := d.Result()
	bound := 4 * math.Log(float64(g.N())) / beta
	if float64(res.MaxStrongRadius()) > bound {
		t.Fatalf("distributed radius %d above bound %v (centralized %d)",
			res.MaxStrongRadius(), bound, c.MaxStrongRadius())
	}
}

func TestDistributedPanicsOnBadBeta(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewDistributed(graph.Path(4), 0, 1)
}
