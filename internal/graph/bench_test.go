package graph

import (
	"testing"

	"radionet/internal/rng"
)

// BenchmarkBuilderBuild measures CSR construction at n = 10^5 on a sparse
// random edge set (~3 edges per node, duplicates included, the generator
// workload). Build orders the packed uint64 edge keys with two counting
// passes, staged in the adjacency array, so it is linear in n + m.
// ReportAllocs pins the allocation profile: the steady state is four
// allocations (off, adj, the n+1 counter, Graph) plus whatever AddEdge
// growth the sub-benchmark permits.
func BenchmarkBuilderBuild(b *testing.B) {
	const n = 100_000
	const m = 3 * n
	r := rng.New(11)
	us := make([]int, m)
	vs := make([]int, m)
	for i := 0; i < m; i++ {
		us[i] = r.Intn(n)
		vs[i] = r.Intn(n)
	}
	run := func(b *testing.B, reserve bool) {
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			bd := NewBuilder("bench", n)
			if reserve {
				bd.Reserve(m)
			}
			for j := 0; j < m; j++ {
				if us[j] != vs[j] {
					bd.AddEdge(us[j], vs[j])
				}
			}
			g := bd.Build()
			if g.N() != n {
				b.Fatal("bad graph")
			}
		}
	}
	b.Run("grow", func(b *testing.B) { run(b, false) })
	b.Run("reserve", func(b *testing.B) { run(b, true) })
}

// BenchmarkGnpDense4096 measures generating and building the graph of
// the perfbench cd17_gnp_dense workload, G(4096, 0.05) with its spanning
// tree (~424k edge keys, D = 2).
func BenchmarkGnpDense4096(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if g := Gnp(4096, 0.05, rng.New(uint64(i))); g.N() != 4096 {
			b.Fatal("bad graph")
		}
	}
}

// BenchmarkGeometric10k measures generating and building the unit-disk
// graph of the perfbench cd17_geo workload, 10^4 points at radius 0.03:
// point draws, the cell-list neighbour search and Build.
func BenchmarkGeometric10k(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if g := RandomGeometric(10000, 0.03, rng.New(uint64(i))); g.N() != 10000 {
			b.Fatal("bad graph")
		}
	}
}
