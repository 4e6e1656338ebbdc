package multicast

import (
	"testing"

	"radionet/internal/graph"
	"radionet/internal/rng"
)

// BenchmarkPipelined times one pipelined k = 8 multicast to completion
// (construction excluded) on a sparse grid and a random tree.
func BenchmarkPipelined(b *testing.B) {
	for _, c := range []struct {
		name string
		g    *graph.Graph
	}{
		{"grid32x32", graph.Grid(32, 32)},
		{"randtree2000", graph.RandomTree(2000, rng.New(1))},
	} {
		b.Run(c.name, func(b *testing.B) {
			d := c.g.DiameterEstimate()
			var rounds int64
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				p, err := NewPipelined(c.g, d, 1, 0, msgs(8))
				if err != nil {
					b.Fatal(err)
				}
				b.StartTimer()
				res := p.Run(0)
				if !res.Done {
					b.Fatal("pipelined multicast incomplete")
				}
				rounds = res.Rounds
			}
			b.ReportMetric(float64(rounds), "radio-rounds")
		})
	}
}
