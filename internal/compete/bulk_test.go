package compete

import (
	"fmt"
	"testing"

	"radionet/internal/cluster"
	"radionet/internal/graph"
	"radionet/internal/radio"
	"radionet/internal/rng"
)

// roundLog captures one engine round as seen by a RoundHook.
type roundLog struct {
	tx                     []int32
	deliveries, collisions int
}

func hookInto(e *radio.Engine, log *[]roundLog) {
	e.Hook = func(_ int64, transmitters []int32, deliveries, collisions int) {
		*log = append(*log, roundLog{
			tx:         append([]int32(nil), transmitters...),
			deliveries: deliveries,
			collisions: collisions,
		})
	}
}

// bulkEquivGraphs builds the randomized sparse topologies the
// bulk-vs-reference sweeps run on (cf. decay's equivalenceGraphs). The
// last two span several 64-bit words of the bulk path's bitsets with an n
// that is not a multiple of 64 (207 and 301 nodes), and hold several
// coarse clusters, so word-boundary and per-clock member-list bugs show.
func bulkEquivGraphs(seed uint64) []*graph.Graph {
	r := rng.New(seed)
	return []*graph.Graph{
		graph.RandomTree(48, r.Fork(1)),
		graph.Gnp(56, 0.07, r.Fork(2)),
		graph.Grid(5, 8),
		graph.PathOfCliques(5, 4),
		graph.Grid(9, 23),
		graph.RandomGeometric(301, 0.1, r.Fork(3)),
	}
}

// The bulk fast path (contiguous state, shared lane clocks, ActBulk +
// RecvBulk) must be observationally identical to the retained per-node
// reference implementation, round for round: same transmitter sets, same
// delivery/collision counts, same node values after every round, same
// metrics — across graphs, seeds, source patterns, every ablation flag,
// and collision detection.
func TestBulkMatchesPerNodeRoundForRound(t *testing.T) {
	identity := func(_ int, n radio.Node) radio.Node { return n }
	variants := []struct {
		name string
		cfg  Config
		cd   bool
	}{
		{"default", Config{}, false},
		{"hw16", Config{CurtailLogLog: true}, false},
		{"no-background", Config{DisableBackground: true}, false},
		{"no-helper", Config{DisableHelper: true}, false},
		{"no-curtail", Config{DisableCurtail: true}, false},
		{"collision-detection", Config{}, true},
	}
	for seed := uint64(1); seed <= 2; seed++ {
		for gi, g := range bulkEquivGraphs(seed) {
			d := g.DiameterEstimate()
			sources := map[int]int64{0: 9}
			if gi%2 == 1 { // multi-source with distinct values
				sources = map[int]int64{0: 5, g.N() / 2: 9, g.N() - 1: 2}
			}
			vars := variants
			if gi == 0 {
				// The FixedJ ablation needs a valid exponent for this d.
				jmin, _ := cluster.JRange(d, 0.25, 0.75)
				vars = append(vars, struct {
					name string
					cfg  Config
					cd   bool
				}{fmt.Sprintf("fixed-j=%d", jmin), Config{FixedJ: jmin}, false})
			}
			for _, vr := range vars {
				refCfg := vr.cfg
				refCfg.Wrap = identity
				bc, err := New(g, d, vr.cfg, seed, sources)
				if err != nil {
					t.Fatal(err)
				}
				rc, err := New(g, d, refCfg, seed, sources)
				if err != nil {
					t.Fatal(err)
				}
				if bc.Engine.Bulk == nil || bc.Engine.BulkRecv == nil {
					t.Fatalf("%s %s: bulk seams not installed on the unwrapped path", g, vr.name)
				}
				if rc.Engine.Bulk != nil || rc.Engine.BulkRecv != nil {
					t.Fatalf("%s %s: bulk seams installed despite Wrap", g, vr.name)
				}
				bc.Engine.CollisionDetection = vr.cd
				rc.Engine.CollisionDetection = vr.cd
				var blog, rlog []roundLog
				hookInto(bc.Engine, &blog)
				hookInto(rc.Engine, &rlog)
				budget := 8 * bc.Budget()
				for r := int64(0); r < budget; r++ {
					if bc.Done() != rc.Done() {
						t.Fatalf("%s %s seed=%d round %d: bulk Done=%v, reference Done=%v",
							g, vr.name, seed, r, bc.Done(), rc.Done())
					}
					if bc.Done() && rc.Done() {
						break
					}
					bc.Engine.Step()
					rc.Engine.Step()
					b, p := blog[len(blog)-1], rlog[len(rlog)-1]
					if b.deliveries != p.deliveries || b.collisions != p.collisions {
						t.Fatalf("%s %s seed=%d round %d: bulk %d/%d deliveries/collisions, reference %d/%d",
							g, vr.name, seed, r, b.deliveries, b.collisions, p.deliveries, p.collisions)
					}
					if len(b.tx) != len(p.tx) {
						t.Fatalf("%s %s seed=%d round %d: %d vs %d transmitters",
							g, vr.name, seed, r, len(b.tx), len(p.tx))
					}
					for i := range b.tx {
						if b.tx[i] != p.tx[i] {
							t.Fatalf("%s %s seed=%d round %d: transmitter %d is %d (bulk) vs %d (reference)",
								g, vr.name, seed, r, i, b.tx[i], p.tx[i])
						}
					}
					// A wrong message A shows in the listeners' values the
					// round it is delivered.
					bv, rv := bc.Values(), rc.Values()
					for v := range bv {
						if bv[v] != rv[v] {
							t.Fatalf("%s %s seed=%d round %d node %d: value %d (bulk) vs %d (reference)",
								g, vr.name, seed, r, v, bv[v], rv[v])
						}
					}
				}
				// Ablated runs may legitimately not complete; identity is
				// still required for everything that executed.
				if bc.Engine.Metrics != rc.Engine.Metrics {
					t.Fatalf("%s %s seed=%d: metrics: bulk %+v, reference %+v",
						g, vr.name, seed, bc.Engine.Metrics, rc.Engine.Metrics)
				}
				if bc.InformedCount() != rc.InformedCount() {
					t.Fatalf("%s %s seed=%d: InformedCount %d vs %d",
						g, vr.name, seed, bc.InformedCount(), rc.InformedCount())
				}
				if vr.name == "default" && !bc.Done() {
					t.Fatalf("%s seed=%d: default run incomplete within budget", g, seed)
				}
			}
		}
	}
}

// Instances built through a shared Pre (the campaign per-config scratch
// convention) must be bit-identical to independently constructed ones —
// including when the shared Pre is exercised concurrently, as the
// executor does at -workers > 1.
func TestSharedPreIsBitIdentical(t *testing.T) {
	g := graph.Gnp(64, 0.06, rng.New(4))
	d := g.DiameterEstimate()
	pre := NewPre(g, d, Config{})
	type outcome struct {
		rounds int64
		m      radio.Metrics
		values []int64
	}
	run := func(b *Broadcast) outcome {
		rounds, done := b.Run(0)
		if !done {
			t.Error("broadcast incomplete")
		}
		return outcome{rounds, b.Engine.Metrics, b.Values()}
	}
	seeds := []uint64{1, 2, 3, 4}
	want := make([]outcome, len(seeds))
	for i, seed := range seeds {
		b, err := NewBroadcast(g, d, Config{}, seed, 0, 9)
		if err != nil {
			t.Fatal(err)
		}
		want[i] = run(b)
	}
	// Concurrent construction through one Pre, twice to let the scratch
	// pool actually recycle buffers.
	for pass := 0; pass < 2; pass++ {
		results := make([]outcome, len(seeds))
		done := make(chan int, len(seeds))
		for i, seed := range seeds {
			go func(i int, seed uint64) {
				defer func() { done <- i }()
				b, err := NewBroadcastPre(pre, seed, 0, 9)
				if err != nil {
					t.Error(err)
					return
				}
				results[i] = run(b)
			}(i, seed)
		}
		for range seeds {
			<-done
		}
		for i := range seeds {
			if results[i].rounds != want[i].rounds || results[i].m != want[i].m {
				t.Fatalf("pass %d seed %d: shared-Pre run (%d rounds, %+v) differs from independent (%d rounds, %+v)",
					pass, seeds[i], results[i].rounds, results[i].m, want[i].rounds, want[i].m)
			}
			for v := range results[i].values {
				if results[i].values[v] != want[i].values[v] {
					t.Fatalf("pass %d seed %d node %d: %d vs %d",
						pass, seeds[i], v, results[i].values[v], want[i].values[v])
				}
			}
		}
	}
}
