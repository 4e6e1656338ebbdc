package radionet

// One benchmark per evaluation artifact (DESIGN.md §6): each Benchmark<ID>
// regenerates the corresponding claim table at quick scale; run
// cmd/experiments for the full-scale version recorded in EXPERIMENTS.md.
// Micro-benchmarks for the substrates follow.

import (
	"io"
	"testing"

	"radionet/internal/cluster"
	"radionet/internal/decay"
	"radionet/internal/exp"
	"radionet/internal/rng"
)

// benchExperiment runs one registered experiment per iteration and reports
// its row count so regressions in coverage are visible.
func benchExperiment(b *testing.B, id string) {
	b.Helper()
	var rows int
	for i := 0; i < b.N; i++ {
		tbl, err := exp.Run(id, exp.Options{Seed: 1, Quick: true, Seeds: 1})
		if err != nil {
			b.Fatal(err)
		}
		rows = len(tbl.Rows)
		if err := tbl.Render(io.Discard); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(rows), "rows")
}

func BenchmarkT1Decay(b *testing.B)                { benchExperiment(b, "T1") }
func BenchmarkT2StrongDiameter(b *testing.B)       { benchExperiment(b, "T2") }
func BenchmarkT3EdgeCut(b *testing.B)              { benchExperiment(b, "T3") }
func BenchmarkT4DistToCenter(b *testing.B)         { benchExperiment(b, "T4") }
func BenchmarkT5Boundaries(b *testing.B)           { benchExperiment(b, "T5") }
func BenchmarkT6BadSubpaths(b *testing.B)          { benchExperiment(b, "T6") }
func BenchmarkT7DistributedPartition(b *testing.B) { benchExperiment(b, "T7") }
func BenchmarkT8Ladders(b *testing.B)              { benchExperiment(b, "T8") }
func BenchmarkF1BroadcastVsD(b *testing.B)         { benchExperiment(b, "F1") }
func BenchmarkF2BroadcastVsN(b *testing.B)         { benchExperiment(b, "F2") }
func BenchmarkF3LeaderElection(b *testing.B)       { benchExperiment(b, "F3") }
func BenchmarkF4CompeteSources(b *testing.B)       { benchExperiment(b, "F4") }
func BenchmarkF5Optimality(b *testing.B)           { benchExperiment(b, "F5") }
func BenchmarkF6Ablations(b *testing.B)            { benchExperiment(b, "F6") }

// --- substrate micro-benchmarks ---

func BenchmarkBroadcastCD17Grid(b *testing.B) {
	net := NewNetwork(Grid(8, 32))
	var rounds int64
	for i := 0; i < b.N; i++ {
		res, err := net.Broadcast(0, 9, BroadcastOptions{Seed: uint64(i)})
		if err != nil || !res.Done {
			b.Fatalf("broadcast failed: %v %+v", err, res)
		}
		rounds = res.Rounds
	}
	b.ReportMetric(float64(rounds), "radio-rounds")
}

func BenchmarkBroadcastBGIGrid(b *testing.B) {
	net := NewNetwork(Grid(8, 32))
	var rounds int64
	for i := 0; i < b.N; i++ {
		res, err := net.Broadcast(0, 9, BroadcastOptions{Algorithm: BGI, Seed: uint64(i)})
		if err != nil || !res.Done {
			b.Fatalf("broadcast failed: %v %+v", err, res)
		}
		rounds = res.Rounds
	}
	b.ReportMetric(float64(rounds), "radio-rounds")
}

func BenchmarkLeaderElectionCD17(b *testing.B) {
	net := NewNetwork(Grid(8, 16))
	var rounds int64
	for i := 0; i < b.N; i++ {
		res, err := net.LeaderElection(LeaderOptions{Seed: uint64(i)})
		if err != nil || !res.Done {
			b.Fatalf("election failed: %v %+v", err, res.Result)
		}
		rounds = res.Rounds
	}
	b.ReportMetric(float64(rounds), "radio-rounds")
}

func BenchmarkPartitionCentralized(b *testing.B) {
	g := Grid(64, 64)
	r := rng.New(1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cluster.Partition(g, 0.1, r.Fork(uint64(i)))
	}
}

func BenchmarkPartitionDistributed(b *testing.B) {
	g := Grid(12, 12)
	for i := 0; i < b.N; i++ {
		d := cluster.NewDistributed(g, 0.3, uint64(i))
		if !d.Run(0).Done {
			b.Fatal("distributed partition incomplete")
		}
	}
}

func BenchmarkDecayPhase(b *testing.B) {
	g := Star(256)
	bc := decay.NewBroadcast(g, g.DiameterEstimate(), decay.Config{}, 1, map[int]int64{0: 1})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		bc.Engine.Step()
	}
}

func BenchmarkGraphBFS(b *testing.B) {
	g := Grid(128, 128)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g.BFS(i % g.N())
	}
}
