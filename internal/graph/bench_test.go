package graph

import (
	"testing"

	"radionet/internal/rng"
)

// BenchmarkBuilderBuild measures CSR construction at n = 10^5 on a sparse
// random edge set (~3 edges per node, duplicates included, the generator
// workload): dominated by the edge sort, a closure-free slices.Sort over
// the builder's packed uint64 edge keys. ReportAllocs
// pins the allocation profile: Build now sizes the adjacency array from
// exact degree counts and reuses the offset array as the insertion cursor,
// so the steady state is three allocations (off, adj, Graph) plus whatever
// AddEdge growth the sub-benchmark permits.
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
