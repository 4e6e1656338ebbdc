package compete

import (
	"testing"

	"radionet/internal/graph"
	"radionet/internal/rng"
)

// The Compete hot-path benchmarks: cd17 and hw16 broadcast over an n grid
// on the sparse families (random recursive tree, sparse G(n,p)), matching
// the style of internal/decay/bench_test.go. The default configuration
// runs the bulk fast path (contiguous state + ActBulk/RecvBulk, shared
// lane clocks); the ...PerNode variants swap in the per-node reference
// engine (perNode), which is the pre-bulk engine configuration.
// Round counts are identical by construction; only wall time and
// allocations differ. BenchmarkCD17LeaderGrid8x512,
// BenchmarkCD17BroadcastGeo10k and BenchmarkCD17BroadcastGnpDense4096 are
// the perfbench workload shapes (leader:cd17 on grid:8x512, broadcast:cd17
// on geometric:10000:0.03 and on gnp:4096:0.05).
// See DESIGN.md §5 for recorded numbers.

func benchCompete(b *testing.B, g *graph.Graph, hw16, ref bool) {
	b.Helper()
	d := g.DiameterEstimate()
	pre := NewPre(g, d, Config{CurtailLogLog: hw16})
	benchRuns(b, func() (*Compete, error) {
		c, err := New(pre, 1, map[int]int64{0: 9}, nil)
		if err != nil {
			return nil, err
		}
		if ref {
			return perNode(c, nil), nil
		}
		return c, nil
	})
}

// benchRuns times b.N instances from build, each constructed and run to
// completion.
func benchRuns(b *testing.B, build func() (*Compete, error)) {
	b.Helper()
	b.ReportAllocs()
	b.ResetTimer()
	var rounds int64
	for i := 0; i < b.N; i++ {
		c, err := build()
		if err != nil {
			b.Fatal(err)
		}
		res := c.Run(0)
		rounds = res.Rounds
		if !res.Done {
			b.Fatal("run incomplete")
		}
	}
	b.ReportMetric(float64(rounds), "radio-rounds")
}

func BenchmarkCD17Broadcast10kRandTree(b *testing.B) {
	benchCompete(b, graph.RandomTree(10_000, rng.New(7)), false, false)
}

func BenchmarkCD17Broadcast100kRandTree(b *testing.B) {
	benchCompete(b, graph.RandomTree(100_000, rng.New(7)), false, false)
}

func BenchmarkCD17Broadcast100kGnp(b *testing.B) {
	benchCompete(b, graph.Gnp(100_000, 0.00005, rng.New(9)), false, false)
}

func BenchmarkHW16Broadcast100kRandTree(b *testing.B) {
	benchCompete(b, graph.RandomTree(100_000, rng.New(7)), true, false)
}

// The per-node reference configuration, kept at n = 10^4 so the CI
// benchmark smoke pass stays fast; the bulk-vs-reference gap is already
// visible at this scale.
func BenchmarkCD17Broadcast10kRandTreePerNode(b *testing.B) {
	benchCompete(b, graph.RandomTree(10_000, rng.New(7)), false, true)
}

// BenchmarkCD17LeaderGrid8x512 is leader election in the paper's headline
// regime, D polynomial in n (n = 4096, D ≈ 518): many light rounds, so
// the per-round Act cost dominates.
func BenchmarkCD17LeaderGrid8x512(b *testing.B) {
	g := graph.Grid(8, 512)
	pre := NewPre(g, g.DiameterEstimate(), Config{})
	benchRuns(b, func() (*Compete, error) {
		le, err := NewLeaderElection(pre, 1, nil)
		if err != nil {
			return nil, err
		}
		return le.Compete, nil
	})
}

// BenchmarkCD17BroadcastGeo10k is broadcast on a unit-disk graph, the
// deployment model radio networks exist for (n = 10^4, D ≈ 53).
func BenchmarkCD17BroadcastGeo10k(b *testing.B) {
	benchCompete(b, graph.RandomGeometric(10_000, 0.03, rng.New(3)), false, false)
}

// BenchmarkCD17BroadcastGnpDense4096 is broadcast in the polylog regime
// (n = 4096, p = 0.05, D = 2): the one shape whose nodes have dense
// adjacency rows, so marking runs word-at-a-time.
func BenchmarkCD17BroadcastGnpDense4096(b *testing.B) {
	benchCompete(b, graph.Gnp(4096, 0.05, rng.New(5)), false, false)
}

// The build-layer benchmarks time construction alone on the three
// perfbench shapes: the trial's coarse, fine and background
// Partition(β) clusterings, their schedules and the engine, with no
// round run. The Pre is built once, outside the loop; every construction
// allocates its own build buffers, as every run does.

// benchBuild times b.N constructions by build.
func benchBuild[T any](b *testing.B, build func() (T, error)) {
	b.Helper()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := build(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkCD17BuildLeaderGrid8x512(b *testing.B) {
	g := graph.Grid(8, 512)
	pre := NewPre(g, g.DiameterEstimate(), Config{})
	benchBuild(b, func() (*LeaderElection, error) { return NewLeaderElection(pre, 1, nil) })
}

func BenchmarkCD17BuildGeo10k(b *testing.B) {
	g := graph.RandomGeometric(10_000, 0.03, rng.New(3))
	pre := NewPre(g, g.DiameterEstimate(), Config{})
	benchBuild(b, func() (*Compete, error) { return New(pre, 1, map[int]int64{0: 9}, nil) })
}

func BenchmarkCD17BuildGnpDense4096(b *testing.B) {
	g := graph.Gnp(4096, 0.05, rng.New(5))
	pre := NewPre(g, g.DiameterEstimate(), Config{})
	benchBuild(b, func() (*Compete, error) { return New(pre, 1, map[int]int64{0: 9}, nil) })
}
