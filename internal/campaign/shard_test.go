package campaign

import (
	"strings"
	"testing"

	"radionet/internal/obs"
)

// TestEngineShardsOutputNeutral is the campaign-level acceptance check for
// intra-round sharding: forcing any EngineShards value — off, explicit
// multi-shard, or the auto split — must leave every sink byte-identical.
// The matrix uses a graph large enough (2000 nodes, 32 words) that an
// explicit shard count genuinely splits the delivery passes.
func TestEngineShardsOutputNeutral(t *testing.T) {
	if testing.Short() {
		t.Skip("runs full protocol trials")
	}
	m := Matrix{
		Topologies: []string{"randtree:2000"},
		Algorithms: []AlgoSpec{
			{Task: Broadcast, Algo: "bgi"},
			{Task: Broadcast, Algo: "truncated-decay"},
		},
		Seeds:      2,
		MasterSeed: 42,
	}
	ref := runToBuffers(t, Campaign{Matrix: m, Workers: 1, EngineShards: 1})
	for _, shards := range []int{0, 2, 4} {
		var st RunStats
		c := Campaign{Matrix: m, Workers: 2, EngineShards: shards, Obs: obs.NewRegistry(), Stats: &st}
		got := runToBuffers(t, c)
		for _, f := range []string{"text", "csv", "jsonl"} {
			if ref[f] != got[f] {
				t.Errorf("EngineShards=%d: %s sink differs from unsharded run:\n-- shards=1 --\n%s\n-- shards=%d --\n%s",
					shards, f, ref[f], shards, got[f])
			}
		}
		if shards >= 1 && st.Shards != shards {
			t.Errorf("EngineShards=%d: RunStats.Shards = %d", shards, st.Shards)
		}
		if shards == 0 && st.Shards < 1 {
			t.Errorf("auto split: RunStats.Shards = %d, want >= 1", st.Shards)
		}
		if got := c.Manifest("campaign", &st).Shards; got != st.Shards {
			t.Errorf("EngineShards=%d: manifest shards = %d, want RunStats.Shards %d", shards, got, st.Shards)
		}
	}
}

// TestResolveShards pins the auto-split policy: explicit values win, small
// graphs never shard, and the auto split divides GOMAXPROCS by the worker
// count.
func TestResolveShards(t *testing.T) {
	c := &Campaign{EngineShards: 3}
	if got := c.resolveShards(1<<20, 1); got != 3 {
		t.Fatalf("explicit EngineShards: got %d, want 3", got)
	}
	c = &Campaign{EngineShards: 1}
	if got := c.resolveShards(1<<20, 1); got != 1 {
		t.Fatalf("EngineShards=1 must disable: got %d", got)
	}
	c = &Campaign{}
	if got := c.resolveShards(100, 1); got != 1 {
		t.Fatalf("small graph must not auto-shard: got %d", got)
	}
	if got := c.resolveShards(shardMinNodes, 1); got < 1 {
		t.Fatalf("auto split returned %d", got)
	}
	c = &Campaign{EngineShards: 4}
	if got := c.resolveShards(100, 1); got != 2 {
		t.Fatalf("EngineShards=4 on a 2-word graph: got %d, want the engine's cap 2", got)
	}
}

// TestShardsReportEffectiveCount checks that RunStats and the manifest
// report the shard count the engines ran, not the one requested: a
// 64-node grid is one bitset word, so -shards 4 runs unsharded.
func TestShardsReportEffectiveCount(t *testing.T) {
	var st RunStats
	reg := obs.NewRegistry()
	c := Campaign{Matrix: Matrix{
		Topologies: []string{"grid:8x8"},
		Algorithms: []AlgoSpec{{Task: Broadcast, Algo: "bgi"}},
		Seeds:      2,
		MasterSeed: 1,
	}, Workers: 1, EngineShards: 4, Obs: reg, Stats: &st}
	if _, err := c.Run(); err != nil {
		t.Fatal(err)
	}
	if st.Shards != 1 {
		t.Errorf("RunStats.Shards = %d, want 1", st.Shards)
	}
	if got := c.Manifest("campaign", &st).Shards; got != 1 {
		t.Errorf("manifest shards = %d, want 1", got)
	}
	for name := range reg.Snapshot().Counters {
		if strings.HasPrefix(name, "engine.shard.") {
			t.Errorf("unsharded run records %s", name)
		}
	}
}
