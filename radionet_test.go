package radionet

import (
	"strings"
	"testing"

	"radionet/internal/campaign"
	"radionet/internal/protocol"
)

// checkCampaignPath runs one trial through the facade and as a one-config
// campaign plan (Campaign.RunPlan, as radiosim runs it) — same seed, the campaign's trial sources {0: 9} for
// broadcast, the fault plan realized from the same spec — and fails
// unless both report the same Rounds, Done, Reached and ReachTarget: the
// facade and the campaign share one Build/Run/Verify path. The spec
// "none" runs unfaulted but still has the campaign report reach.
func checkCampaignPath(t *testing.T, net *Network, d *protocol.Descriptor, fault string, seed uint64) {
	t.Helper()
	fs, err := campaign.ParseFaultSpec(fault)
	if err != nil {
		t.Fatal(err)
	}
	cfg := campaign.Config{G: net.G, D: net.Diameter, Spec: campaign.AlgoSpec{Task: d.Task, Algo: d.Name}, Fault: fs}
	want := (&campaign.Campaign{}).RunPlan(&campaign.Plan{Configs: []campaign.Config{cfg}, Trials: []campaign.Trial{{Seed: seed}}})[0]
	var plan *FaultPlan
	if !fs.None() {
		plan = fs.TrialPlan(net.G, seed, d.ProtectedNodes(net.G.N(), seed, d.DefaultSources())...)
	}
	var got Result
	if d.Task == protocol.Broadcast {
		got, err = net.Broadcast(0, 9, BroadcastOptions{Algorithm: Algorithm(d.Name), Seed: seed, Faults: plan})
	} else {
		var lr LeaderResult
		lr, err = net.LeaderElection(LeaderOptions{Algorithm: LeaderAlgorithm(d.Name), Seed: seed, Faults: plan})
		got = lr.Result
	}
	if err != nil {
		t.Fatal(err)
	}
	if got.Rounds != want.Rounds || got.Done != want.Done || got.Reached != want.Reached || got.ReachTarget != want.ReachTarget {
		t.Fatalf("%s:%s seed %d faults %s: facade %+v, campaign %+v", d.Task, d.Name, seed, fault, got, want)
	}
}

// checkCampaignPaths runs checkCampaignPath on a 6x6 grid for seeds 1-3,
// unfaulted and, for fault-capable descriptors, under crash faults.
func checkCampaignPaths(t *testing.T, d *protocol.Descriptor) {
	net := NewNetwork(Grid(6, 6))
	for seed := uint64(1); seed <= 3; seed++ {
		checkCampaignPath(t, net, d, "none", seed)
		if d.Caps.Faults {
			checkCampaignPath(t, net, d, "crash:0.3@20", seed)
		}
	}
}

func TestNetworkBroadcastAllAlgorithms(t *testing.T) {
	net := NewNetwork(Grid(6, 10))
	for _, d := range protocol.ByTask(protocol.Broadcast) {
		algo := Algorithm(d.Name)
		t.Run(string(algo), func(t *testing.T) {
			checkCampaignPaths(t, d)
			res, err := net.Broadcast(0, 42, BroadcastOptions{Algorithm: algo, Seed: 3})
			if err != nil {
				t.Fatal(err)
			}
			if !res.Done {
				t.Fatalf("%s broadcast incomplete after %d rounds", algo, res.Rounds)
			}
			if res.Rounds <= 0 {
				t.Fatalf("%s reported %d rounds", algo, res.Rounds)
			}
		})
	}
}

func TestNetworkBroadcastValidation(t *testing.T) {
	net := NewNetwork(Path(10))
	if _, err := net.Broadcast(-1, 1, BroadcastOptions{}); err == nil {
		t.Fatal("negative source accepted")
	}
	if _, err := net.Broadcast(0, -1, BroadcastOptions{}); err == nil {
		t.Fatal("negative value accepted")
	}
	if _, err := net.Broadcast(0, 1, BroadcastOptions{Algorithm: "nope"}); err == nil {
		t.Fatal("unknown algorithm accepted")
	}
}

func TestNetworkCompete(t *testing.T) {
	net := NewNetwork(PathOfCliques(5, 4))
	res, err := net.Compete(map[int]int64{0: 5, 19: 9}, BroadcastOptions{Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Done {
		t.Fatal("compete incomplete")
	}
	if res.PrecomputeRounds <= 0 {
		t.Fatal("CD17 should charge precompute rounds")
	}
}

func TestNetworkLeaderElectionAllAlgorithms(t *testing.T) {
	net := NewNetwork(Grid(6, 6))
	for _, d := range protocol.ByTask(protocol.Leader) {
		algo := LeaderAlgorithm(d.Name)
		t.Run(string(algo), func(t *testing.T) {
			checkCampaignPaths(t, d)
			res, err := net.LeaderElection(LeaderOptions{Algorithm: algo, Seed: 5})
			if err != nil {
				t.Fatal(err)
			}
			if !res.Done || res.Leader < 0 {
				t.Fatalf("%s election failed: %+v", algo, res.Result)
			}
			if got := res.Candidates[res.Leader]; got != res.LeaderID {
				t.Fatalf("%s: leader's ID %d != winner %d", algo, got, res.LeaderID)
			}
		})
	}
	if _, err := net.LeaderElection(LeaderOptions{Algorithm: "nope"}); err == nil {
		t.Fatal("unknown leader algorithm accepted")
	}
}

// TestNetworkLeaderElectionFaults exercises the facade's fault threading
// for leader elections: fault-capable algorithms run survivor-scoped
// (with the would-be winner protected, the election still completes and
// verifies); fault-incapable ones reject the plan loudly.
func TestNetworkLeaderElectionFaults(t *testing.T) {
	net := NewNetwork(Grid(6, 6))
	// Protect the would-be winner: derive it from the same candidate draw
	// the election performs (protocol.SampleCandidates is pure in the seed).
	const seed = 5
	cands, err := protocol.SampleCandidates(net.G.N(), seed)
	if err != nil {
		t.Fatal(err)
	}
	winner, bestID := -1, int64(-1)
	for v, id := range cands {
		if id > bestID {
			winner, bestID = v, id
		}
	}
	plan := NewFaultPlan(net.G.N(), seed)
	for v := 0; v < 8; v++ {
		if v != winner {
			plan.Crash(v, 10)
		}
	}
	res, err := net.LeaderElection(LeaderOptions{Algorithm: CD17Leader, Seed: seed, Faults: plan})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Done || res.Leader != winner {
		t.Fatalf("faulted election failed: %+v (want leader %d)", res, winner)
	}
	if res.Reached != res.ReachTarget || res.ReachTarget <= 0 {
		t.Fatalf("faulted election reach %d/%d", res.Reached, res.ReachTarget)
	}
	bad := NewFaultPlan(net.G.N(), seed)
	bad.Crash(1, 10)
	if _, err := net.LeaderElection(LeaderOptions{Algorithm: BinarySearchLeader, Seed: seed, Faults: bad}); err == nil {
		t.Fatal("fault-incapable leader algorithm accepted a plan")
	}
}

func TestNewNetworkPanics(t *testing.T) {
	for name, g := range map[string]*Graph{
		"empty":        NewGraphBuilder("e", 0).Build(),
		"disconnected": NewGraphBuilder("d", 2).Build(),
	} {
		g := g
		t.Run(name, func(t *testing.T) {
			defer func() {
				if recover() == nil {
					t.Fatal("expected panic")
				}
			}()
			NewNetwork(g)
		})
	}
}

func TestPartitionGraphFacade(t *testing.T) {
	p := PartitionGraph(Grid(8, 8), 0.3, 11)
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	if p.NumClusters() < 2 {
		t.Fatalf("suspicious cluster count %d", p.NumClusters())
	}
}

func TestGeneratorsFacade(t *testing.T) {
	for _, g := range []*Graph{
		Path(5), Cycle(5), Grid(2, 3), Star(4), Complete(4), Hypercube(3),
		BalancedTree(2, 2), PathOfCliques(2, 3), Caterpillar(3, 1), Dumbbell(3, 1),
		RandomGeometric(50, 0.25, 1), Gnp(50, 0.05, 2), RandomTree(50, 3),
	} {
		if g.N() == 0 || !g.IsConnected() {
			t.Fatalf("facade generator produced bad graph %v", g)
		}
	}
}

func TestDeterministicFacadeRuns(t *testing.T) {
	net := NewNetwork(Path(40))
	a, err := net.Broadcast(0, 1, BroadcastOptions{Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	b, err := net.Broadcast(0, 1, BroadcastOptions{Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	if a.Rounds != b.Rounds {
		t.Fatalf("same seed different rounds: %d vs %d", a.Rounds, b.Rounds)
	}
}

// TestFacadeMetrics checks the BroadcastOptions/LeaderOptions Metrics
// seam: attaching a registry collects engine counters without changing
// the run, and a user Hook composes with the collector instead of being
// displaced by it.
func TestFacadeMetrics(t *testing.T) {
	net := NewNetwork(Grid(6, 6))
	bare, err := net.Broadcast(0, 7, BroadcastOptions{Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	reg := NewMetricsRegistry()
	hookRounds := 0
	res, err := net.Broadcast(0, 7, BroadcastOptions{
		Seed:    11,
		Metrics: reg,
		Hook:    func(int64, []int32, int, int) { hookRounds++ },
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Rounds != bare.Rounds || res.Done != bare.Done {
		t.Fatalf("metrics perturbed the run: %+v vs %+v", res, bare)
	}
	snap := reg.Snapshot()
	if got := snap.Counters["engine.rounds"]; got != int64(res.Rounds) {
		t.Fatalf("engine.rounds = %d, want %d", got, res.Rounds)
	}
	if snap.Counters["engine.transmissions"] <= 0 {
		t.Fatal("engine.transmissions not collected")
	}
	if hookRounds != int(res.Rounds) {
		t.Fatalf("user hook saw %d rounds, want %d", hookRounds, res.Rounds)
	}

	lreg := NewMetricsRegistry()
	lres, err := net.LeaderElection(LeaderOptions{Seed: 5, Metrics: lreg})
	if err != nil {
		t.Fatal(err)
	}
	if got := lreg.Snapshot().Counters["engine.rounds"]; got <= 0 || !lres.Done {
		t.Fatalf("leader metrics missing: rounds=%d done=%v", got, lres.Done)
	}
}

// TestConfigTuningRouting pins how BroadcastOptions.Config reaches the
// protocol registry: a zero Config means "defaults" (no tuning), a
// non-zero one is handed to the descriptor, and descriptors that take no
// tuning reject it.
func TestConfigTuningRouting(t *testing.T) {
	net := NewNetwork(Grid(6, 10))
	if tun := tuning(Config{}); tun != nil {
		t.Fatalf("tuning(Config{}) = %v, want nil", tun)
	}
	res, err := net.Broadcast(0, 42, BroadcastOptions{Algorithm: CD17, Seed: 3})
	if err != nil || !res.Done {
		t.Fatalf("zero Config with CD17: done=%v err=%v", res.Done, err)
	}
	_, err = net.Broadcast(0, 42, BroadcastOptions{Algorithm: BGI, Seed: 3, Config: Config{CurtailLogLog: true}})
	if err == nil || !strings.Contains(err.Error(), "take no tuning") {
		t.Fatalf("non-zero Config with BGI: err = %v, want the Decay descriptors' no-tuning error", err)
	}
	res, err = net.Broadcast(0, 42, BroadcastOptions{Algorithm: CD17, Seed: 3, Config: Config{CurtailLogLog: true}})
	if err != nil || !res.Done {
		t.Fatalf("Config{CurtailLogLog: true} with CD17: done=%v err=%v", res.Done, err)
	}
}
