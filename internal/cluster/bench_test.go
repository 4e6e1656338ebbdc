package cluster

import (
	"testing"

	"radionet/internal/graph"
	"radionet/internal/rng"
)

// BenchmarkPartition times one Partition(β) build on the graphs of the
// repository benchmark's three cd17 workloads (perfbench: cd17_geo,
// cd17_gnp_dense, cd17_leader_grid). β = 2^-2 is a fine-clustering β of
// cd17 at these diameters. The Scratch is reused across iterations, as the
// cd17 precomputation reuses it across the partitions of one trial, so
// B/op counts only the Result.
func BenchmarkPartition(b *testing.B) {
	cases := []struct {
		name string
		g    *graph.Graph
	}{
		{"geometric10000", graph.RandomGeometric(10000, 0.03, rng.New(1))},
		{"gnp4096", graph.Gnp(4096, 0.05, rng.New(1))},
		{"grid8x512", graph.Grid(8, 512)},
	}
	for _, c := range cases {
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			var scr Scratch
			seed := uint64(0)
			for b.Loop() {
				seed++
				PartitionScratch(c.g, 0.25, rng.New(seed), &scr)
			}
		})
	}
}
