package campaign

import (
	"sync/atomic"
	"testing"

	"radionet/internal/compete"
	"radionet/internal/obs"
	"radionet/internal/precompute"
	"radionet/internal/protocol"
)

// planConfig is a caller-built config of task:algo on the topology spec,
// keyed by the spec.
func planConfig(t *testing.T, spec string, task Task, algo string) Config {
	t.Helper()
	topo, err := ParseTopology(spec)
	if err != nil {
		t.Fatal(err)
	}
	g := topo.Build(1)
	return Config{
		Topology: spec,
		Key:      precompute.Key{Spec: spec, Seed: 1},
		G:        g,
		D:        g.DiameterEstimate(),
		Spec:     AlgoSpec{Task: task, Algo: algo},
	}
}

// planOf schedules every config at each of the given seeds, config-major.
func planOf(cfgs []Config, seeds ...uint64) *Plan {
	p := &Plan{Configs: cfgs}
	for ci := range cfgs {
		for rep, s := range seeds {
			p.Trials = append(p.Trials, Trial{Index: len(p.Trials), Cfg: ci, Rep: rep, Seed: s})
		}
	}
	return p
}

// withoutWall drops the one non-deterministic field of a trial result.
func withoutWall(rs []TrialResult) []TrialResult {
	out := append([]TrialResult(nil), rs...)
	for i := range out {
		out[i].Wall = 0
	}
	return out
}

// TestRunPlanTuningAndSources pins the caller-set Config fields: tuned
// configs on the same Key as a default-tuned one, and a config with its
// own source set, must each run exactly as a direct descriptor Build with
// that tuning, those sources and that seed. The tuned broadcast follows
// the default one on the same graph, and the tuned leader election's
// ablation changes the run but not the precomputation geometry, so
// dropping Tuning from BuildParams fails the test.
func TestRunPlanTuningAndSources(t *testing.T) {
	if testing.Short() {
		t.Skip("runs full protocol trials")
	}
	base := planConfig(t, "grid:8x16", Broadcast, "cd17")
	tuned := base
	tuned.Tuning = compete.Config{CurtailLogLog: true}
	sourced := base
	sourced.Sources = map[int]int64{0: 5, base.G.N() - 1: 7}
	leader := planConfig(t, "grid:8x16", Leader, "cd17")
	leader.Tuning = compete.Config{DisableBackground: true}
	cfgs := []Config{base, tuned, sourced, leader}
	plan := planOf(cfgs, 3, 4)
	for _, workers := range []int{1, 4} {
		res := (&Campaign{Workers: workers}).RunPlan(plan)
		for i, tr := range plan.Trials {
			cfg := cfgs[tr.Cfg]
			desc, err := lookup(cfg.Spec)
			if err != nil {
				t.Fatal(err)
			}
			sources := cfg.Sources
			if sources == nil {
				sources = desc.DefaultSources()
			}
			r, err := desc.Build(protocol.BuildParams{G: cfg.G, D: cfg.D, Seed: tr.Seed, Sources: sources, Tuning: cfg.Tuning})
			if err != nil {
				t.Fatal(err)
			}
			want := r.Run(0)
			got := res[i]
			if got.Rounds != want.Rounds || got.Tx != want.Tx || got.Done != want.Done {
				t.Errorf("workers=%d config %d seed %d: plan (rounds %d, tx %d, done %v), direct Build (rounds %d, tx %d, done %v)",
					workers, tr.Cfg, tr.Seed, got.Rounds, got.Tx, got.Done, want.Rounds, want.Tx, want.Done)
			}
		}
	}
}

// TestRunPlanCallerBuilt pins RunPlan on a caller-built plan — two
// graphs, explicit trial seeds, broadcast and leader configs on each —
// against runTrial per (config, seed), at 1 and 4 workers.
func TestRunPlanCallerBuilt(t *testing.T) {
	if testing.Short() {
		t.Skip("runs full protocol trials")
	}
	var cfgs []Config
	for _, spec := range []string{"grid:4x8", "path:24"} {
		cfgs = append(cfgs,
			planConfig(t, spec, Broadcast, "bgi"),
			planConfig(t, spec, Broadcast, "cd17"),
			planConfig(t, spec, Leader, "cd17"))
	}
	plan := planOf(cfgs, 7, 8, 1000)
	serial := withoutWall((&Campaign{Workers: 1}).RunPlan(plan))
	parallel := withoutWall((&Campaign{Workers: 4}).RunPlan(plan))
	for i, tr := range plan.Trials {
		want := runTrial(&cfgs[tr.Cfg], tr.Seed, 0, trialOpts{})
		want.Wall = 0
		if serial[i] != want {
			t.Errorf("trial %d (%s, seed %d): RunPlan %+v, runTrial %+v", i, cfgs[tr.Cfg].Name(), tr.Seed, serial[i], want)
		}
		if parallel[i] != serial[i] {
			t.Errorf("trial %d: 4 workers %+v, 1 worker %+v", i, parallel[i], serial[i])
		}
	}
}

// TestRunPlanRejectsFaultsWithoutCapability checks that a caller-built
// plan crossing a fault spec with a fault-incapable algorithm fails its
// trial with the error Expand gives the same matrix, where the trial used
// to run unfaulted.
func TestRunPlanRejectsFaultsWithoutCapability(t *testing.T) {
	_, want := Matrix{
		Topologies: []string{"grid:6x6"},
		Algorithms: []AlgoSpec{{Task: Leader, Algo: "binary-search"}},
		Faults:     []string{"crash:0.3@20"},
		Seeds:      1,
	}.Expand()
	if want == nil {
		t.Fatal("Expand accepted a fault axis on binary-search")
	}
	cfg := planConfig(t, "grid:6x6", Leader, "binary-search")
	fs, err := ParseFaultSpec("crash:0.3@20")
	if err != nil {
		t.Fatal(err)
	}
	cfg.Fault = fs
	res := (&Campaign{}).RunPlan(planOf([]Config{cfg}, 1))[0]
	if res.Reason != "error" || res.Done || res.Err != want.Error() {
		t.Errorf("faulted binary-search trial: %+v, want Reason \"error\" and Err %q", res, want)
	}
}

// TestCampaignHookSeesEveryRound runs one trial of every registered
// descriptor with a counting Campaign.Hook (shared by two workers, as
// the contract allows) and checks the count against the trial's Rounds.
// Binary-search LE charges every ID bit its full T_BC window but
// simulates only the rounds its broadcasts run, so its hook count is
// positive and at most Rounds.
func TestCampaignHookSeesEveryRound(t *testing.T) {
	if testing.Short() {
		t.Skip("runs full protocol trials")
	}
	for _, task := range protocol.Tasks() {
		for _, d := range protocol.ByTask(task) {
			name := string(task) + ":" + d.Name
			var rounds atomic.Int64
			c := &Campaign{Workers: 2, Hook: func(int64, []int32, int, int) { rounds.Add(1) }}
			res := c.RunPlan(planOf([]Config{planConfig(t, "grid:4x8", task, d.Name)}, 3, 4))
			want := res[0].Rounds + res[1].Rounds
			got := rounds.Load()
			ok := got == want
			if name == "leader:binary-search" {
				ok = got > 0 && got <= want
			}
			if !ok || res[0].Rounds <= 0 {
				t.Errorf("%s: hook saw %d rounds, want %d (trial rounds %d, %d)", name, got, want, res[0].Rounds, res[1].Rounds)
			}
		}
	}
}

// TestCompositeRunnersReachEngineTelemetry pins that the runners built
// from several Decay broadcasts (one per ID bit or tournament phase) run
// them on the one engine their Build wired: at two engine
// shards the Obs registry records their rounds and the second shard's
// busy time.
func TestCompositeRunnersReachEngineTelemetry(t *testing.T) {
	if testing.Short() {
		t.Skip("runs full protocol trials")
	}
	for _, spec := range []AlgoSpec{
		{Task: Leader, Algo: "binary-search"},
		{Task: Leader, Algo: "gh13"},
	} {
		c := &Campaign{Workers: 1, EngineShards: 2, Obs: obs.NewRegistry()}
		c.RunPlan(planOf([]Config{planConfig(t, "randtree:2000", spec.Task, spec.Algo)}, 3))
		snap := c.Obs.Snapshot()
		rounds, busy := snap.Counters[obs.EngineRounds], snap.Counters[obs.EngineShardBusy(1)]
		if rounds <= 0 || busy <= 0 {
			t.Errorf("%s:%s at 2 shards: %s = %d, %s = %d, want both > 0",
				spec.Task, spec.Algo, obs.EngineRounds, rounds, obs.EngineShardBusy(1), busy)
		}
	}
}
