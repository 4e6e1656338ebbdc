package radionet

// Cross-family integration suite: every broadcasting algorithm times every
// topology family times several seeds, verifying completion and value
// agreement through the public API. This is the release gate for the
// whole stack (graph generators -> simulator -> protocols -> facade).

import (
	"fmt"
	"testing"
)

func integrationFamilies(t testing.TB) map[string]*Graph {
	t.Helper()
	fams := map[string]*Graph{
		"path":        Path(64),
		"cycle":       Cycle(60),
		"grid":        Grid(8, 12),
		"tree":        BalancedTree(2, 6),
		"cliquepath":  PathOfCliques(10, 6),
		"caterpillar": Caterpillar(20, 3),
		"dumbbell":    Dumbbell(8, 10),
		"hypercube":   Hypercube(6),
		"geometric":   RandomGeometric(150, 0.12, 5),
		"gnp":         Gnp(120, 0.05, 6),
	}
	return fams
}

func TestIntegrationBroadcastMatrix(t *testing.T) {
	if testing.Short() {
		t.Skip("integration matrix")
	}
	algos := []Algorithm{CD17, BGI, TruncatedDecay}
	for name, g := range integrationFamilies(t) {
		net := NewNetwork(g)
		for _, algo := range algos {
			for seed := uint64(1); seed <= 2; seed++ {
				algo, seed, name, net := algo, seed, name, net
				t.Run(fmt.Sprintf("%s/%s/seed%d", name, algo, seed), func(t *testing.T) {
					res, err := net.Broadcast(0, 77, BroadcastOptions{Algorithm: algo, Seed: seed})
					if err != nil {
						t.Fatal(err)
					}
					if !res.Done {
						t.Fatalf("incomplete after %d rounds", res.Rounds)
					}
				})
			}
		}
	}
}

func TestIntegrationLeaderMatrix(t *testing.T) {
	if testing.Short() {
		t.Skip("integration matrix")
	}
	algos := []LeaderAlgorithm{CD17Leader, MaxBroadcastLeader}
	for name, g := range integrationFamilies(t) {
		net := NewNetwork(g)
		for _, algo := range algos {
			name, algo, net := name, algo, net
			t.Run(fmt.Sprintf("%s/%s", name, algo), func(t *testing.T) {
				res, err := net.LeaderElection(LeaderOptions{Algorithm: algo, Seed: 11})
				if err != nil {
					t.Fatal(err)
				}
				if !res.Done || res.Leader < 0 {
					t.Fatalf("election failed: %+v", res.Result)
				}
				if res.Candidates[res.Leader] != res.LeaderID {
					t.Fatal("leader does not own the winning ID")
				}
			})
		}
	}
}
