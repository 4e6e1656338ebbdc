package radio

import (
	"fmt"
	"slices"
	"testing"

	"radionet/internal/graph"
	"radionet/internal/rng"
)

// shardProto is the determinism-matrix protocol: every node transmits its
// id when id % 5 == t % 5 and logs everything it hears as a per-node
// event string. Node decisions are node-local, so the Protocol may
// legally implement BulkRangeActor and ride the sharded act wave; the
// per-node run lifts shardProtoNode through the adapter.
type shardProto struct {
	n   int
	log [][]string
}

type shardProtoNode struct {
	p  *shardProto
	id int32
}

func (nd *shardProtoNode) Act(t int64) Action {
	if int64(nd.id)%5 == t%5 {
		return Transmit(Message{Kind: 1, A: int64(nd.id)})
	}
	return Listen
}

func (nd *shardProtoNode) Recv(t int64, msg *Message) {
	nd.p.log[nd.id] = append(nd.p.log[nd.id], fmt.Sprintf("%d:msg%d", t, msg.A))
}

func (p *shardProto) ActBulk(t int64, tx []int32, msgs []Message) ([]int32, []Message) {
	return p.ActBulkRange(t, 0, int32(p.n), tx, msgs)
}

func (p *shardProto) ActBulkRange(t int64, lo, hi int32, tx []int32, msgs []Message) ([]int32, []Message) {
	for v := lo; v < hi; v++ {
		if int64(v)%5 == t%5 {
			tx = append(tx, v)
			msgs = append(msgs, Message{Kind: 1, A: int64(v)})
		}
	}
	return tx, msgs
}

func (p *shardProto) RecvBulk(t int64, listeners, msgIdx []int32, msgs []Message) {
	for k, vi := range listeners {
		p.log[vi] = append(p.log[vi], fmt.Sprintf("%d:msg%d", t, msgs[msgIdx[k]].A))
	}
}

var _ BulkRangeActor = (*shardProto)(nil)
var _ Protocol = (*shardProto)(nil)

// shardRun is one cell of the determinism matrix: the engine's Metrics,
// the per-round hook trace, and the per-node event logs.
type shardRun struct {
	metrics Metrics
	trace   []string
	logs    [][]string
}

// newShardProtoEngine builds an engine running a fresh shardProto on g:
// the Protocol itself when bulk is set, else its per-node machines
// through the adapter.
func newShardProtoEngine(g *graph.Graph, bulk bool) (*Engine, *shardProto) {
	n := g.N()
	p := &shardProto{n: n, log: make([][]string, n)}
	if bulk {
		return NewEngine(g, p), p
	}
	nodes := make([]Node, n)
	for v := 0; v < n; v++ {
		nodes[v] = &shardProtoNode{p: p, id: int32(v)}
	}
	return NewNodeEngine(g, nodes), p
}

func runShardCase(g *graph.Graph, shards int, bulk bool, rounds int64) shardRun {
	e, p := newShardProtoEngine(g, bulk)
	if shards > 1 {
		e.SetShards(shards)
	}
	var trace []string
	e.Hook = func(t int64, tx []int32, deliveries, collisions int) {
		ids := slices.Clone(tx)
		slices.Sort(ids)
		trace = append(trace, fmt.Sprintf("%d:%v d%d c%d", t, ids, deliveries, collisions))
	}
	stepN(e, rounds)
	return shardRun{metrics: e.Metrics, trace: trace, logs: p.log}
}

// TestShardDeterminismMatrix pins the tentpole invariant: every shard
// count produces byte-identical Metrics, per-round traces, and per-node
// event logs, for a Protocol with a range Act and for per-node machines
// through the adapter.
func TestShardDeterminismMatrix(t *testing.T) {
	graphs := []*graph.Graph{
		graph.Grid(13, 17), // 221 nodes, 4 words
		graph.Gnp(300, 0.03, rng.New(9)),
	}
	const rounds = 60
	for _, g := range graphs {
		for _, bulk := range []bool{false, true} {
			ref := runShardCase(g, 1, bulk, rounds)
			for _, k := range []int{2, 3, 8} {
				got := runShardCase(g, k, bulk, rounds)
				name := fmt.Sprintf("%s bulk=%v k=%d", g, bulk, k)
				if got.metrics != ref.metrics {
					t.Fatalf("%s: metrics diverged:\nk=1: %+v\nk=%d: %+v", name, ref.metrics, k, got.metrics)
				}
				if !slices.Equal(got.trace, ref.trace) {
					for i := range ref.trace {
						if i >= len(got.trace) || got.trace[i] != ref.trace[i] {
							t.Fatalf("%s: trace diverged at round %d:\nk=1: %s\nk=%d: %s", name, i, ref.trace[i], k, got.trace[i])
						}
					}
					t.Fatalf("%s: trace length %d vs %d", name, len(ref.trace), len(got.trace))
				}
				for v := range ref.logs {
					if !slices.Equal(got.logs[v], ref.logs[v]) {
						t.Fatalf("%s: node %d log diverged:\nk=1: %v\nk=%d: %v", name, v, ref.logs[v], k, got.logs[v])
					}
				}
			}
		}
	}
}

// TestSetShardsValidation pins the setup contract: shard counts clamp to
// the word count, k < 1 and mid-run installs panic, and Shards reports
// the resolved value.
func TestSetShardsValidation(t *testing.T) {
	g := graph.Path(100) // 2 words
	mk := func() *Engine {
		e, _ := newShardProtoEngine(g, false)
		return e
	}
	e := mk()
	e.SetShards(8)
	if got := e.shards; got != 2 {
		t.Fatalf("shards = %d after SetShards(8) on a 2-word engine, want 2", got)
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("SetShards(0) did not panic")
			}
		}()
		mk().SetShards(0)
	}()
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("mid-run SetShards did not panic")
			}
		}()
		e := mk()
		e.Step()
		e.SetShards(2)
	}()
}

// TestShardHookReportsBusyTime checks the telemetry seam: with a hook
// installed and k > 1, every shard reports at least one non-negative busy
// sample per run, and installing the hook changes no output.
func TestShardHookReportsBusyTime(t *testing.T) {
	g := graph.Gnp(300, 0.03, rng.New(9))
	ref := runShardCase(g, 3, true, 40)

	e, _ := newShardProtoEngine(g, true)
	e.SetShards(3)
	seen := make(map[int]int)
	e.ShardHook = func(shard int, busyNanos int64) {
		if busyNanos < 0 {
			t.Errorf("shard %d reported negative busy time %d", shard, busyNanos)
		}
		seen[shard]++
	}
	stepN(e, 40)
	if e.Metrics != ref.metrics {
		t.Fatalf("ShardHook changed output: %+v vs %+v", e.Metrics, ref.metrics)
	}
	for s := 0; s < e.shards; s++ {
		if seen[s] == 0 {
			t.Errorf("shard %d never reported busy time", s)
		}
	}
}
