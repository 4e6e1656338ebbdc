package radio

import (
	"testing"

	"radionet/internal/graph"
	"radionet/internal/rng"
)

// Delivery-kernel microbenchmarks: the word-parallel bitset kernel against
// a reference per-edge scatter (the pre-bitset engine's stamp/hits
// algorithm), on a sparse random tree (CSR neighbor walks), two dense
// Gnp graphs (per-node adjacency bitmask rows) and a grid (band word
// loops). DESIGN.md §5 cites these
// numbers; regenerate with
//
//	go test ./internal/radio -bench StepDelivery -benchmem

// benchTxRounds precomputes R rounds of transmitter sets (ascending ids,
// ~density fraction of nodes) so neither kernel pays RNG costs inside the
// timed loop.
func benchTxRounds(n, rounds int, density float64, seed uint64) [][]int32 {
	r := rng.New(seed)
	out := make([][]int32, rounds)
	for i := range out {
		for v := 0; v < n; v++ {
			if r.Bernoulli(density) {
				out[i] = append(out[i], int32(v))
			}
		}
	}
	return out
}

// scatterKernel is the reference delivery algorithm the bitset kernel
// replaced: per transmitter, walk CSR neighbors and stamp a hit counter;
// then classify every node by its counter. Kept here (test-only) so the
// benchmark comparison survives the engine rewrite.
type scatterKernel struct {
	g     *graph.Graph
	stamp []int64
	hits  []int32
	isTx  []bool
	round int64
}

func newScatterKernel(g *graph.Graph) *scatterKernel {
	n := g.N()
	return &scatterKernel{g: g, stamp: make([]int64, n), hits: make([]int32, n), isTx: make([]bool, n)}
}

func (s *scatterKernel) run(tx []int32) (deliveries, collisions int) {
	s.round++
	for _, u := range tx {
		s.isTx[u] = true
	}
	for _, u := range tx {
		for _, v := range s.g.Neighbors(int(u)) {
			if s.stamp[v] != s.round {
				s.stamp[v] = s.round
				s.hits[v] = 0
			}
			s.hits[v]++
		}
	}
	for v := 0; v < s.g.N(); v++ {
		if s.stamp[v] != s.round || s.isTx[v] {
			continue
		}
		switch {
		case s.hits[v] == 1:
			deliveries++
		default:
			collisions++
		}
	}
	for _, u := range tx {
		s.isTx[u] = false
	}
	return deliveries, collisions
}

// benchEngine builds an engine whose nodes never act on their own (the
// benchmark drives transmit sets directly).
func benchEngine(g *graph.Graph) *Engine {
	nodes := make([]Node, g.N())
	for v := range nodes {
		nodes[v] = silent{}
	}
	return NewNodeEngine(g, nodes)
}

// runBitsetKernel drives one mark+classify+clear cycle of the engine's
// delivery kernel for a fixed transmitter set, bypassing Act and replay —
// the same slice of work scatterKernel.run times.
func runBitsetKernel(e *Engine, tx []int32) (deliveries, collisions int) {
	markRound(e, tx)
	st := &e.sh[0]
	st.runClassify()
	deliveries, collisions = st.deliveries, st.collisions
	e.clearRound()
	return deliveries, collisions
}

func benchmarkDelivery(b *testing.B, g *graph.Graph, density float64, bitset bool) {
	const pre = 32
	txs := benchTxRounds(g.N(), pre, density, 42)
	var e *Engine
	var sk *scatterKernel
	if bitset {
		e = benchEngine(g)
	} else {
		sk = newScatterKernel(g)
	}
	// Agreement check before timing: both kernels must classify every
	// precomputed round identically.
	if bitset {
		ref := newScatterKernel(g)
		for _, tx := range txs {
			wd, wc := ref.run(tx)
			gd, gc := runBitsetKernel(e, tx)
			if gd != wd || gc != wc {
				b.Fatalf("kernel disagreement: bitset d=%d c=%d, scatter d=%d c=%d", gd, gc, wd, wc)
			}
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tx := txs[i%pre]
		if bitset {
			runBitsetKernel(e, tx)
		} else {
			sk.run(tx)
		}
	}
}

// BenchmarkStepDelivery compares the delivery kernels head-to-head.
// "sparse" is a 1e5-node random tree (all-CSR adjacency); "dense" is a
// 4096-node Gnp with mean degree ~80, above the dense-row threshold, so
// the bitset kernel ORs adjacency rows word-at-a-time; "gnp4096p05" is
// the shape of the cd17_gnp_dense perfbench workload (mean degree ~205,
// every row dense) at its traced ~3% transmitters per round;
// "gnp4096p05heavy" is the same graph at 25% transmitters, where every
// listener collides after a few dozen rows and the marking pass stops;
// "grid8x512" is the cd17_leader_grid perfbench graph, a band graph
// (graph.Bands) marked by shifted word loops, at 15% transmitters, a
// density between the upper quartile and the top decile of a
// leader:cd17 run's rounds there; "geo10k" is the cd17_geo perfbench
// graph (mean degree ~28, all CSR) at 5% transmitters, the per-round
// density of a traced cd17_geo run.
//
// A row's timing depends on which rows ran before it in the same
// process, so compare kernels on rows run alone at a fixed iteration
// count, e.g. -bench 'StepDelivery/bitset/geo10k$' -benchtime 20000x.
func BenchmarkStepDelivery(b *testing.B) {
	sparse := graph.RandomTree(100000, rng.New(7))
	dense := graph.Gnp(4096, 0.02, rng.New(7))
	gnp := graph.Gnp(4096, 0.05, rng.New(7))
	grid := graph.Grid(8, 512)
	geo := graph.RandomGeometric(10000, 0.03, rng.New(3))
	b.Run("bitset/sparse", func(b *testing.B) { benchmarkDelivery(b, sparse, 0.02, true) })
	b.Run("scatter/sparse", func(b *testing.B) { benchmarkDelivery(b, sparse, 0.02, false) })
	b.Run("bitset/dense", func(b *testing.B) { benchmarkDelivery(b, dense, 0.05, true) })
	b.Run("scatter/dense", func(b *testing.B) { benchmarkDelivery(b, dense, 0.05, false) })
	b.Run("bitset/gnp4096p05", func(b *testing.B) { benchmarkDelivery(b, gnp, 0.03, true) })
	b.Run("scatter/gnp4096p05", func(b *testing.B) { benchmarkDelivery(b, gnp, 0.03, false) })
	b.Run("bitset/gnp4096p05heavy", func(b *testing.B) { benchmarkDelivery(b, gnp, 0.25, true) })
	b.Run("scatter/gnp4096p05heavy", func(b *testing.B) { benchmarkDelivery(b, gnp, 0.25, false) })
	b.Run("bitset/grid8x512", func(b *testing.B) { benchmarkDelivery(b, grid, 0.15, true) })
	b.Run("scatter/grid8x512", func(b *testing.B) { benchmarkDelivery(b, grid, 0.15, false) })
	b.Run("bitset/geo10k", func(b *testing.B) { benchmarkDelivery(b, geo, 0.05, true) })
	b.Run("scatter/geo10k", func(b *testing.B) { benchmarkDelivery(b, geo, 0.05, false) })
}
