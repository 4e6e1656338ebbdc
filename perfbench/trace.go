package main

import (
	"bufio"
	"cmp"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	rtmetrics "runtime/metrics"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"radionet/internal/campaign"
	"radionet/internal/graph"
	"radionet/internal/precompute"
	"radionet/internal/protocol"
	"radionet/internal/radio"
	"radionet/internal/stats"
)

// span is one call into a layer, timed from the benchmark's side of the
// call. Names are "<layer>.<call>"; self time is summed by layer.
type span struct {
	Name   string `json:"name"`
	ID     int32  `json:"id"`
	Parent int32  `json:"parent"` // -1 on the root
	Trial  int32  `json:"trial"`  // trial index, -1 outside trials
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer keeps every span in memory until the run writes them out at
// exit. Each goroutine records into its own spanBuf and hands it over
// once, so recording a round takes no lock.
type tracer struct {
	epoch time.Time
	ids   atomic.Int32
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

func (t *tracer) now() int64 { return int64(time.Since(t.epoch)) }

// spanBuf is one goroutine's spans, all of one trial (or of none).
type spanBuf struct {
	t     *tracer
	trial int32
	spans []span
}

func (t *tracer) buf(trial int32) *spanBuf { return &spanBuf{t: t, trial: trial} }

// open starts a span at start and returns its index in the buffer.
func (b *spanBuf) open(name string, parent int32, start int64) int {
	b.spans = append(b.spans, span{Name: name, ID: b.t.ids.Add(1) - 1, Parent: parent, Trial: b.trial, Start: start})
	return len(b.spans) - 1
}

// close ends the span at index i and returns its duration.
func (b *spanBuf) close(i int) time.Duration {
	b.spans[i].End = b.t.now()
	return time.Duration(b.spans[i].End - b.spans[i].Start)
}

// timed runs fn inside a new span and returns the span's duration. fn gets
// the span's id, to parent the spans it records.
func (b *spanBuf) timed(name string, parent int32, fn func(id int32)) time.Duration {
	i := b.open(name, parent, b.t.now())
	fn(b.spans[i].ID)
	return b.close(i)
}

// flush hands the buffer's spans to the tracer.
func (b *spanBuf) flush() {
	b.t.mu.Lock()
	b.t.spans = append(b.t.spans, b.spans...)
	b.t.mu.Unlock()
	b.spans = nil
}

// write stores the spans, in id order, as JSON lines at path.
func (t *tracer) write(path string) error {
	slices.SortFunc(t.spans, func(a, b span) int { return cmp.Compare(a.ID, b.ID) })
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// selfTimes returns each layer's self time: the summed durations of its
// spans minus the parts their child spans cover. Children may overlap
// (trials on different workers), so the covered part is their union.
func selfTimes(spans []span) map[string]time.Duration {
	kids := make(map[int32][]span)
	for _, s := range spans {
		if s.Parent >= 0 {
			kids[s.Parent] = append(kids[s.Parent], s)
		}
	}
	self := make(map[string]time.Duration)
	for _, s := range spans {
		ch := kids[s.ID]
		slices.SortFunc(ch, func(a, b span) int { return cmp.Compare(a.Start, b.Start) })
		covered, cur := int64(0), s.Start
		for _, c := range ch {
			lo, hi := max(c.Start, cur), min(c.End, s.End)
			if hi > lo {
				covered += hi - lo
				cur = hi
			}
		}
		layer, _, _ := strings.Cut(s.Name, ".")
		self[layer] += time.Duration(s.End - s.Start - covered)
	}
	return self
}

// trialTrace is what the replay saw of one trial.
type trialTrace struct {
	res        protocol.Result
	err        error // Build or Verify failure
	build, run time.Duration
	// Counts from the round hook.
	rounds, tx, deliveries, collisions int64
}

// ok applies the correctness gate to one replayed trial: it must build,
// finish within budget, pass Verify and reach its whole completion
// target, and the round hook must have seen every round it reports.
func (tt *trialTrace) ok() bool {
	return tt.err == nil && tt.res.Done && tt.res.Reached == tt.res.ReachTarget && tt.rounds == tt.res.Rounds
}

// replayOut is the traced replay's record of one plan.
type replayOut struct {
	expand, materialize     time.Duration
	gen, diameter, denseAdj time.Duration
	cold, warm              time.Duration
	coldBytes               int64
	scratch, runPhase       time.Duration
	edges, denseRows        int
	liveHeapMB              float64
	trials                  []trialTrace
	// mismatch names the first replayed product that differed from the
	// plan's; "" when all agreed.
	mismatch string
}

func (o *replayOut) fail(what string) {
	if o.mismatch == "" {
		o.mismatch = what
	}
}

// compare records a mismatch when a replayed product differs from the
// plan's: the replay must rebuild exactly what Campaign.Run ran on.
func (o *replayOut) compare(what string, g *graph.Graph, d int, cfg *campaign.Config) {
	off, adj := g.CSR()
	wantOff, wantAdj := cfg.G.CSR()
	if d != cfg.D || !slices.Equal(off, wantOff) || !slices.Equal(adj, wantAdj) {
		o.fail(what)
	}
}

// replay re-executes the plan of one workload seed call by call, in the
// order Campaign.Run makes the calls, with a span around each.
// Matrix.Expand materializes the topology product itself (through a nil
// store), so Plan.Materialize has nothing left to do; the replay rebuilds
// the product from its key with the calls a nil-store materialization
// makes — generate, DiameterEstimate, DenseAdj — under a
// campaign.materialize span, then stores and reloads it through a
// disk-backed precompute store in cacheDir. Trials run on the worker
// count campaign.ForEachWorker resolves, with the given shard count.
func replay(w workload, seed uint64, shards int, t *tracer, cacheDir string) (*replayOut, error) {
	out := &replayOut{}
	b := t.buf(-1)
	root := b.open("bench.replay", -1, t.now())
	rootID := b.spans[root].ID
	var plan *campaign.Plan
	var err error
	out.expand = b.timed("campaign.expand", rootID, func(int32) { plan, err = w.matrix(seed).Expand() })
	if err != nil {
		return nil, err
	}
	cfg := &plan.Configs[0]
	topo, err := campaign.ParseTopology(cfg.Topology)
	if err != nil {
		return nil, err
	}
	desc, ok := protocol.Lookup(cfg.Spec.Task, cfg.Spec.Algo)
	if !ok {
		return nil, fmt.Errorf("unknown algorithm %s", cfg.Spec)
	}

	var g *graph.Graph
	var d int
	out.materialize = b.timed("campaign.materialize", rootID, func(id int32) {
		out.gen = b.timed("graph.gen", id, func(int32) { g = topo.Build(cfg.Key.Seed) })
		out.diameter = b.timed("graph.diameter", id, func(int32) { d = g.DiameterEstimate() })
		out.denseAdj = b.timed("graph.dense_adj", id, func(int32) { g.DenseAdj() })
	})
	out.edges, out.denseRows = g.M(), g.DenseAdj().Rows()
	out.compare("graph", g, d, cfg)

	// A cold store must call the build function and a warm one must not.
	built := false
	build := func(parent int32) func() *graph.Graph {
		return func() *graph.Graph {
			built = true
			var g *graph.Graph
			b.timed("graph.gen", parent, func(int32) { g = topo.Build(cfg.Key.Seed) })
			return g
		}
	}
	var p precompute.Product
	var o precompute.Outcome
	out.cold = b.timed("precompute.cold", rootID, func(id int32) {
		p, o = precompute.NewStore(cacheDir).GetOrBuild(cfg.Key, build(id))
	})
	if !built || o.Source != precompute.SourceBuilt {
		out.fail("precompute.cold")
	}
	out.coldBytes = o.Bytes
	out.compare("precompute.cold", p.G, p.D, cfg)
	built = false
	out.warm = b.timed("precompute.warm", rootID, func(id int32) {
		p, o = precompute.NewStore(cacheDir).GetOrBuild(cfg.Key, build(id))
	})
	if built || o.Source != precompute.SourceDisk {
		out.fail("precompute.warm")
	}
	out.compare("precompute.warm", p.G, p.D, cfg)

	var scr any
	if desc.NewScratch != nil {
		out.scratch = b.timed("protocol.scratch", rootID, func(int32) { scr = desc.NewScratch(cfg.G, cfg.D, nil) })
	}
	// Before any trial records its round spans, so that the figure holds
	// the protocol's state and not the benchmark's.
	out.liveHeapMB = liveHeapMB(desc, cfg, plan.Trials[0].Seed, scr, shards)
	out.trials = make([]trialTrace, len(plan.Trials))
	out.runPhase = b.timed("campaign.run", rootID, func(id int32) {
		campaign.ForEachWorker(0, len(plan.Trials), func(_, i int) {
			tb := t.buf(int32(i))
			out.trials[i] = traceTrial(tb, id, desc, cfg, plan.Trials[i].Seed, plan.Max, scr, shards)
			tb.flush()
		})
	})
	b.close(root)
	b.flush()
	return out, nil
}

// traceTrial builds and runs one trial as the campaign does, with a round
// hook that records one span per round.
func traceTrial(b *spanBuf, parent int32, desc *protocol.Descriptor, cfg *campaign.Config, seed uint64, budget int64, scr any, shards int) (tt trialTrace) {
	var engines radio.EngineSet
	defer engines.Close()
	trial := b.open("campaign.trial", parent, b.t.now())
	defer b.close(trial)
	trialID := b.spans[trial].ID

	var runID int32
	var prev int64
	hook := func(_ int64, tx []int32, deliveries, collisions int) {
		now := b.t.now()
		b.spans[b.open("radio.round", runID, prev)].End = now
		prev = now
		tt.rounds++
		tt.tx += int64(len(tx))
		tt.deliveries += int64(deliveries)
		tt.collisions += int64(collisions)
	}
	var r protocol.Runner
	tt.build = b.timed("protocol.build", trialID, func(int32) {
		r, tt.err = desc.Build(protocol.BuildParams{
			G: cfg.G, D: cfg.D, Seed: seed, Sources: desc.DefaultSources(),
			Scratch: scr, Hook: hook, Shards: shards, Engines: &engines,
		})
	})
	if tt.err != nil {
		return tt
	}
	tt.run = b.timed("radio.run", trialID, func(id int32) {
		runID, prev = id, b.t.now()
		tt.res = r.Run(budget)
	})
	if tt.res.Done && tt.res.Verify != nil {
		tt.err = tt.res.Verify()
	}
	return tt
}

// liveHeapMB builds one trial's runner once more, outside every layer span,
// and returns the heap still live after a forced collection: the graph,
// the scratch and the runner's protocol state, beside the plan and the
// few spans recorded before the trials run.
func liveHeapMB(desc *protocol.Descriptor, cfg *campaign.Config, seed uint64, scr any, shards int) float64 {
	var engines radio.EngineSet
	defer engines.Close()
	r, err := desc.Build(protocol.BuildParams{
		G: cfg.G, D: cfg.D, Seed: seed, Sources: desc.DefaultSources(),
		Scratch: scr, Shards: shards, Engines: &engines,
	})
	if err != nil {
		return 0
	}
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	runtime.KeepAlive(r)
	return float64(ms.HeapAlloc) / (1 << 20)
}

// gate checks the replay against the untraced run of the same seed: the
// trials' round and transmission distributions and the failure count must
// be exactly those Campaign.Run summarized. It returns the number of
// replayed trials that fail — all of them when the replay disagrees.
func gate(sum campaign.ConfigSummary, trials []trialTrace) int {
	var rounds, tx stats.Running
	failed := 0
	for i := range trials {
		rounds.Add(float64(trials[i].res.Rounds))
		tx.Add(float64(trials[i].res.Tx))
		if !trials[i].ok() {
			failed++
		}
	}
	if dist(&rounds) != sum.Rounds || dist(&tx) != sum.Tx || failed != sum.Failures {
		return len(trials)
	}
	return failed
}

// dist renders a trial distribution the way campaign summaries do.
func dist(r *stats.Running) campaign.Dist {
	return campaign.Dist{Mean: r.Mean(), Std: r.Std(), P50: r.Quantile(0.5), P90: r.Quantile(0.9), P99: r.Quantile(0.99), Max: r.Max()}
}

// runtimeSample holds the runtime's cumulative allocation and CPU
// counters.
type runtimeSample struct{ allocBytes, gcCPU, totalCPU float64 }

func readRuntime() runtimeSample {
	s := []rtmetrics.Sample{
		{Name: "/gc/heap/allocs:bytes"},
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
	}
	rtmetrics.Read(s)
	return runtimeSample{float64(s[0].Value.Uint64()), s[1].Value.Float64(), s[2].Value.Float64()}
}

// traced runs the workload's first campaign untraced twice — a warm-up,
// so that the process's heap has grown as it has for the replay, then the
// reference — replays the same seed with spans, and reports the per-layer
// metrics. The spans are written to <dir>/<workload>.jsonl.
func traced(w workload, seed uint64, dir string, env *environment) (report, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return report{}, err
	}
	seed = campaignSeed(seed, 0)
	warm, err := runCampaign(w, seed)
	if err != nil {
		return report{}, err
	}
	runtime.GC()
	rt0 := readRuntime()
	ref, err := runCampaign(w, seed)
	rt1 := readRuntime()
	if err != nil {
		return report{}, err
	}
	cacheDir, err := os.MkdirTemp(dir, "precompute-")
	if err != nil {
		return report{}, err
	}
	defer os.RemoveAll(cacheDir)
	runtime.GC()
	t := newTracer()
	out, err := replay(w, seed, ref.stats.Shards, t, cacheDir)
	if err != nil {
		return report{}, err
	}
	if err := t.write(filepath.Join(dir, w.Name+".jsonl")); err != nil {
		return report{}, err
	}

	rep := tally([]campaignRun{warm}, ref)
	rep.Attempted += len(out.trials)
	if out.mismatch != "" {
		fmt.Fprintf(os.Stderr, "perfbench: replayed %s product differs from the campaign's\n", out.mismatch)
		rep.Failed += len(out.trials)
	} else {
		rep.Failed += gate(ref.sum, out.trials)
	}
	rep.Correct = rep.Failed == 0

	var build, run time.Duration
	var rounds, tx, deliveries, collisions, pre int64
	for _, tt := range out.trials {
		build += tt.build
		run += tt.run
		rounds += tt.rounds
		tx += tt.tx
		deliveries += tt.deliveries
		collisions += tt.collisions
		pre += tt.res.Precompute
	}
	var roundUS []float64
	for _, s := range t.spans {
		if s.Name == "radio.round" {
			roundUS = append(roundUS, float64(s.End-s.Start)/1e3)
		}
	}
	var trialWall time.Duration
	for _, c := range ref.stats.Configs {
		trialWall += c.Wall
	}
	untracedRate := ratio(float64(ref.rounds), ref.stats.Wall.Seconds())
	tracedRate := ratio(float64(rounds), out.runPhase.Seconds())
	n := float64(len(out.trials))
	self := selfTimes(t.spans)

	m := rep.Metrics
	m.set("graph.gen_s", "s", out.gen.Seconds())
	m.set("graph.diameter_s", "s", out.diameter.Seconds())
	m.set("graph.dense_adj_s", "s", out.denseAdj.Seconds())
	m.set("graph.edges", "count", float64(out.edges))
	m.set("graph.dense_rows", "count", float64(out.denseRows))
	m.set("precompute.cold_s", "s", out.cold.Seconds())
	m.set("precompute.warm_s", "s", out.warm.Seconds())
	m.set("precompute.bytes", "B", float64(out.coldBytes))
	m.set("campaign.expand_s", "s", out.expand.Seconds())
	m.set("campaign.materialize_s", "s", out.materialize.Seconds())
	m.set("campaign.busy_frac", "frac", ratio(trialWall.Seconds(), float64(ref.stats.Workers)*ref.stats.Wall.Seconds()))
	m.set("campaign.workers", "count", float64(ref.stats.Workers))
	m.set("campaign.shards", "count", float64(ref.stats.Shards))
	m.set("protocol.scratch_s", "s", out.scratch.Seconds())
	m.set("protocol.build_s", "s", ratio(build.Seconds(), n))
	m.set("protocol.precompute_rounds", "rounds", ratio(float64(pre), n))
	m.set("protocol.live_heap_mb", "MB", out.liveHeapMB)
	m.set("radio.run_s", "s", ratio(run.Seconds(), n))
	m.set("radio.round_us_p50", "us", quantile(roundUS, 0.5))
	m.set("radio.round_us_p99", "us", quantile(roundUS, 0.99))
	m.set("radio.round_samples", "count", float64(len(roundUS)))
	m.set("radio.tx_per_round", "tx/round", ratio(float64(tx), float64(rounds)))
	m.set("radio.deliveries_per_tx", "rx/tx", ratio(float64(deliveries), float64(tx)))
	m.set("radio.collisions_per_round", "col/round", ratio(float64(collisions), float64(rounds)))
	m.set("runtime.alloc_mb", "MB", (rt1.allocBytes-rt0.allocBytes)/(1<<20))
	m.set("runtime.gc_cpu_frac", "frac", ratio(rt1.gcCPU-rt0.gcCPU, rt1.totalCPU-rt0.totalCPU))
	m.set("trace.overhead_frac", "frac", ratio(untracedRate, tracedRate)-1)
	m.set("trace.spans", "count", float64(len(t.spans)))
	for _, layer := range []string{"campaign", "graph", "precompute", "protocol", "radio"} {
		m.set(layer+".self_s", "s", self[layer].Seconds())
	}
	env.Workers, env.Shards = ref.stats.Workers, ref.stats.Shards
	env.SinkSHA256 = []string{ref.digest}
	return rep, nil
}
