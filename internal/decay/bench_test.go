package decay

import (
	"testing"

	"radionet/internal/graph"
	"radionet/internal/rng"
)

// The incremental-termination benchmarks: Decay broadcast at n = 10^5 on
// sparse topologies, comparing the hot path (O(1) Done via radio.Progress
// + the bulk Protocol) against the seed-style configuration (per-round
// O(n) full-scan stop predicate on the engine's per-node adapter: an Act
// call for every node every round). Round counts are identical by
// construction; only wall time differs. See DESIGN.md §5 for recorded
// numbers.

func benchBroadcast100k(b *testing.B, g *graph.Graph, fullScan bool) {
	b.Helper()
	var rounds int64
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		bc := NewBroadcast(g, g.DiameterEstimate(), Config{}, 1, map[int]int64{0: 5})
		if fullScan {
			perNode(bc, nil)
		}
		b.StartTimer()
		var done bool
		if fullScan {
			// The seed termination check: O(n) full scan before the
			// first round and after every round.
			done = bc.doneFullScan()
			for rounds = 0; !done && rounds < 1<<22; rounds++ {
				bc.Engine.Step()
				done = bc.doneFullScan()
			}
		} else {
			res := bc.Run(1 << 22)
			rounds, done = res.Rounds, res.Done
		}
		if !done {
			b.Fatal("broadcast incomplete")
		}
	}
	b.ReportMetric(float64(rounds), "radio-rounds")
}

func BenchmarkBroadcast100kRandTree(b *testing.B) {
	g := graph.RandomTree(100_000, rng.New(7))
	b.ResetTimer()
	benchBroadcast100k(b, g, false)
}

func BenchmarkBroadcast100kRandTreeFullScan(b *testing.B) {
	g := graph.RandomTree(100_000, rng.New(7))
	b.ResetTimer()
	benchBroadcast100k(b, g, true)
}

func BenchmarkBroadcast100kGnp(b *testing.B) {
	g := graph.Gnp(100_000, 0.00005, rng.New(9))
	b.ResetTimer()
	benchBroadcast100k(b, g, false)
}

func BenchmarkBroadcast100kGnpFullScan(b *testing.B) {
	g := graph.Gnp(100_000, 0.00005, rng.New(9))
	b.ResetTimer()
	benchBroadcast100k(b, g, true)
}

// Termination checking in isolation: one Done evaluation at n = 10^5.
// The incremental check is a counter compare; the full scan walks every
// node. This is the per-round cost the tentpole removed.
func BenchmarkDone100kIncremental(b *testing.B) {
	g := graph.RandomTree(100_000, rng.New(7))
	bc := NewBroadcast(g, g.DiameterEstimate(), Config{}, 1, map[int]int64{0: 5})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if bc.Done() {
			b.Fatal("unexpectedly done")
		}
	}
}

func BenchmarkDone100kFullScan(b *testing.B) {
	g := graph.RandomTree(100_000, rng.New(7))
	bc := NewBroadcast(g, g.DiameterEstimate(), Config{}, 1, map[int]int64{0: 5})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if bc.doneFullScan() {
			b.Fatal("unexpectedly done")
		}
	}
}
