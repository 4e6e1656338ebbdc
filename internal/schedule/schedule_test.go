package schedule

import (
	"fmt"
	"testing"

	"radionet/internal/cluster"
	"radionet/internal/graph"
	"radionet/internal/rng"
)

// prob is the transmission probability of a node with ladder length level
// at lane-local round t: the sweep 2^-1 … 2^-level.
func prob(level int32, t int64) float64 {
	step := t % int64(level)
	return 1 / float64(int64(2)<<uint(step))
}

// validate checks s's invariants against its clustering: every ladder is
// at least 1 and equals its cluster center's.
func validate(s *Schedule) error {
	for v, l := range s.Levels {
		if l < 1 {
			return fmt.Errorf("node %d has ladder %d < 1", v, l)
		}
		if c := s.Part.Center[v]; s.Levels[c] != l {
			return fmt.Errorf("node %d ladder %d differs from its center's %d", v, l, s.Levels[c])
		}
	}
	return nil
}

func TestLadder(t *testing.T) {
	tests := []struct{ cont, want int }{
		{0, 1}, {1, 2}, {2, 3}, {3, 3}, {4, 4}, {7, 4}, {8, 5}, {100, 8},
	}
	for _, tc := range tests {
		if got := ladder(tc.cont); got != tc.want {
			t.Errorf("ladder(%d) = %d, want %d", tc.cont, got, tc.want)
		}
	}
}

func TestProbSweep(t *testing.T) {
	// Ladder of 3 sweeps 1/2, 1/4, 1/8 and repeats.
	want := []float64{0.5, 0.25, 0.125, 0.5, 0.25}
	for i, w := range want {
		if got := prob(3, int64(i)); got != w {
			t.Errorf("prob(3,%d) = %v, want %v", i, got, w)
		}
	}
}

func TestBuildOnFamilies(t *testing.T) {
	r := rng.New(2)
	for _, g := range []*graph.Graph{
		graph.Path(40),
		graph.PathOfCliques(5, 8),
		graph.Grid(8, 8),
		graph.Gnp(80, 0.06, r.Fork(1)),
	} {
		part := cluster.Partition(g, 0.2, r.Fork(7))
		s := BuildScratch(g, part, nil)
		if err := validate(s); err != nil {
			t.Fatalf("%v: %v", g, err)
		}
		if s.MaxLevel < 1 {
			t.Fatalf("%v: MaxLevel %d", g, s.MaxLevel)
		}
	}
}

func TestLaddersReflectContention(t *testing.T) {
	// On a path, in-cluster contention is at most 2, so every ladder is
	// tiny regardless of n; on a clique it is cluster-size bound.
	r := rng.New(3)
	p := graph.Path(200)
	s := BuildScratch(p, cluster.Partition(p, 0.05, r.Fork(1)), nil)
	if s.MaxLevel > ladder(2) {
		t.Fatalf("path ladder %d, want <= %d", s.MaxLevel, ladder(2))
	}
	k := graph.Complete(64)
	s2 := BuildScratch(k, cluster.Partition(k, 0.01, r.Fork(2)), nil)
	// With such small beta the whole clique is usually one cluster with
	// contention 63 -> ladder 7.
	if s2.MaxLevel < 3 {
		t.Fatalf("clique ladder %d suspiciously small", s2.MaxLevel)
	}
}

func TestDecayLadderDeliveryProbability(t *testing.T) {
	// Core property behind the Lemma 2.3 substitute: with k participants
	// all sweeping a ladder of length >= log2(k)+1, a receiver adjacent to
	// all of them hears a message within one sweep with constant
	// probability.
	master := rng.New(99)
	for _, k := range []int{1, 2, 5, 17, 60} {
		L := ladder(k)
		const trials = 3000
		ok := 0
		for trial := 0; trial < trials; trial++ {
			r := master.Fork(uint64(k*10007 + trial))
			for s := int64(0); s < int64(L); s++ {
				tx := 0
				for i := 0; i < k; i++ {
					if r.Bernoulli(prob(int32(L), s)) {
						tx++
					}
				}
				if tx == 1 {
					ok++
					break
				}
			}
		}
		p := float64(ok) / trials
		if p < 0.3 {
			t.Errorf("k=%d: sweep success probability %.3f < 0.3", k, p)
		}
	}
}
