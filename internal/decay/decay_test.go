package decay

import (
	"fmt"
	"slices"
	"testing"

	"radionet/internal/graph"
	"radionet/internal/rng"
)

func TestLevels(t *testing.T) {
	tests := []struct{ n, want int }{
		{1, 1}, {2, 1}, {3, 2}, {4, 2}, {5, 3}, {8, 3}, {9, 4}, {1024, 10}, {1025, 11},
	}
	for _, tc := range tests {
		if got := Levels(tc.n); got != tc.want {
			t.Errorf("Levels(%d) = %d, want %d", tc.n, got, tc.want)
		}
	}
}

func TestProb(t *testing.T) {
	if Prob(0) != 0.5 || Prob(1) != 0.25 || Prob(3) != 0.0625 {
		t.Fatalf("Prob sequence wrong: %v %v %v", Prob(0), Prob(1), Prob(3))
	}
}

func TestBroadcastPathCompletes(t *testing.T) {
	g := graph.Path(50)
	b := NewBroadcast(g, g.DiameterEstimate(), Config{}, 1, map[int]int64{0: 99})
	res := b.Run(100000)
	rounds, done := res.Rounds, res.Done
	if !done {
		t.Fatalf("broadcast did not finish in %d rounds (informed %d/%d)",
			rounds, b.informedCount(), g.N())
	}
	for i, v := range b.Values() {
		if v != 99 {
			t.Fatalf("node %d has value %d, want 99", i, v)
		}
	}
}

func TestBroadcastDenseGraphCompletes(t *testing.T) {
	// Heavy contention: cliques force Decay to do real collision work.
	g := graph.PathOfCliques(6, 16)
	b := NewBroadcast(g, g.DiameterEstimate(), Config{}, 7, map[int]int64{0: 5})
	if !b.Run(200000).Done {
		t.Fatalf("broadcast stuck: informed %d/%d", b.informedCount(), g.N())
	}
}

func TestBroadcastMultiSourceTakesMax(t *testing.T) {
	g := graph.Grid(8, 8)
	b := NewBroadcast(g, g.DiameterEstimate(), Config{}, 3, map[int]int64{0: 10, 63: 70, 32: 40})
	if !b.Run(200000).Done {
		t.Fatal("multi-source broadcast did not converge")
	}
	for i, v := range b.Values() {
		if v != 70 {
			t.Fatalf("node %d converged to %d, want 70", i, v)
		}
	}
}

func TestBroadcastNoSourcesNeverDone(t *testing.T) {
	g := graph.Path(5)
	b := NewBroadcast(g, g.DiameterEstimate(), Config{}, 1, nil)
	if b.Run(100).Done {
		t.Fatal("broadcast with no sources reported done")
	}
	if b.informedCount() != 0 {
		t.Fatal("phantom informed nodes")
	}
}

func TestBroadcastDeterministicAcrossRuns(t *testing.T) {
	g := graph.Grid(6, 6)
	r1 := NewBroadcast(g, g.DiameterEstimate(), Config{}, 42, map[int]int64{0: 1})
	r2 := NewBroadcast(g, g.DiameterEstimate(), Config{}, 42, map[int]int64{0: 1})
	n1 := r1.Run(100000).Rounds
	n2 := r2.Run(100000).Rounds
	if n1 != n2 {
		t.Fatalf("same seed gave different completion rounds: %d vs %d", n1, n2)
	}
}

// TestDecaySuccessProbability is the Lemma 3.1 check: one Decay phase
// informs a listener with constant probability, for any number of
// participating neighbors.
func TestDecaySuccessProbability(t *testing.T) {
	const trials = 2000
	master := rng.New(123)
	for _, competitors := range []int{1, 2, 4, 16, 64, 256} {
		L := Levels(competitors + 1)
		success := 0
		for trial := 0; trial < trials; trial++ {
			r := master.Fork(uint64(competitors)<<32 | uint64(trial))
			// Simulate one phase on a star: count steps where exactly one
			// of the competitors transmits.
			for s := 0; s < L; s++ {
				tx := 0
				for c := 0; c < competitors; c++ {
					if r.Bernoulli(Prob(s)) {
						tx++
					}
				}
				if tx == 1 {
					success++
					break
				}
			}
		}
		p := float64(success) / trials
		// The classical bound gives p >= 1/(2e) ≈ 0.18 per phase; measured
		// values are well above that.
		if p < 0.18 {
			t.Errorf("Decay success probability %.3f with %d competitors, want >= 0.18",
				p, competitors)
		}
	}
}

func TestBroadcastScalingOnPath(t *testing.T) {
	// Sanity on the O((D+log n) log n) shape: doubling D should roughly
	// double completion time on a path. Loose factor bounds only.
	times := make(map[int]int64)
	for _, n := range []int{32, 64, 128} {
		g := graph.Path(n)
		b := NewBroadcast(g, g.DiameterEstimate(), Config{}, 9, map[int]int64{0: 1})
		res := b.Run(1 << 20)
		r, done := res.Rounds, res.Done
		if !done {
			t.Fatalf("path n=%d did not finish", n)
		}
		times[n] = r
	}
	if times[128] < times[32] {
		t.Fatalf("completion time not increasing with D: %v", times)
	}
}

// TestRearmMatchesFresh pins Rearm against NewBroadcast: a broadcast
// re-armed after an earlier run (other sources, another seed, stopped
// mid-phase) replays a fresh broadcast round for round, shifted by the
// t0 it read off the engine clock. The transmitter lists, Values and
// Result match, with Tx taken as the increment of the engine's
// cumulative count.
func TestRearmMatchesFresh(t *testing.T) {
	g := graph.Grid(12, 32)
	d := g.DiameterEstimate()
	sources := map[int]int64{0: 9, 200: 4, 383: 9}
	for _, shards := range []int{1, 4} {
		record := func(b *Broadcast, t0 *int64) *[]string {
			var log []string
			b.Engine.Hook = func(r int64, tx []int32, deliveries, collisions int) {
				log = append(log, fmt.Sprintf("%d %v d%d c%d", r-*t0, tx, deliveries, collisions))
			}
			return &log
		}
		var zero, t0 int64
		fresh := NewBroadcast(g, d, Config{}, 17, sources)
		fresh.Engine.SetShards(shards)
		want := record(fresh, &zero)
		wantRes := fresh.Run(0)

		re := NewBroadcast(g, d, Config{}, 5, map[int]int64{40: 3})
		re.Engine.SetShards(shards)
		got := record(re, &t0)
		re.Run(37)
		*got = (*got)[:0]
		t0 = re.Engine.Round()
		tx0 := re.Engine.Metrics.Transmissions
		re.Rearm(17, sources)
		gotRes := re.Run(0)

		name := fmt.Sprintf("shards=%d", shards)
		if !wantRes.Done || t0%int64(Levels(g.N())) == 0 {
			t.Fatalf("%s: fresh run done=%v, t0=%d: the test needs a completed run and a mid-phase t0", name, wantRes.Done, t0)
		}
		if !slices.Equal(*got, *want) {
			t.Errorf("%s: re-armed transmitter log differs from the fresh one (%d vs %d rounds)", name, len(*got), len(*want))
		}
		if !slices.Equal(re.Values(), fresh.Values()) || re.informedCount() != fresh.informedCount() {
			t.Errorf("%s: re-armed Values or informed counts differ from the fresh ones", name)
		}
		gotRes.Tx -= tx0
		if gotRes.Rounds != wantRes.Rounds || gotRes.Tx != wantRes.Tx || gotRes.Done != wantRes.Done ||
			gotRes.Reached != wantRes.Reached || gotRes.ReachTarget != wantRes.ReachTarget {
			t.Errorf("%s: re-armed result %+v, fresh %+v", name, gotRes, wantRes)
		}
	}
}
