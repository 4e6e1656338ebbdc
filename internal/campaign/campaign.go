// Package campaign is the parallel simulation-campaign engine: the
// execution layer between the algorithm library (internal/compete,
// internal/decay, internal/baseline) and the CLIs.
//
// A campaign is described declaratively by a Matrix — a topology sweep
// crossed with (task, algorithm) pairs and a seed range — which Expand
// turns into a deterministic trial list. A worker pool (ForEach) fans the
// trials out across GOMAXPROCS goroutines; every trial derives an
// independent RNG stream from the master seed via rng.Hash64, so the same
// master seed produces bit-identical aggregates regardless of worker count
// or completion order. Per-configuration aggregation streams results to
// pluggable sinks (aligned text, CSV, JSON lines) as soon as each
// configuration's trials complete, in deterministic configuration order.
//
// Run and RunPlan share one trial fan-out; RunPlan executes a caller-built
// Plan (configs with graphs and optional Tuning/Sources, trials with
// explicit seeds) and returns the per-trial results in trial order.
//
// cmd/campaign drives matrices from flags or a JSON config file;
// internal/exp runs its comparison tables F1–F6 through RunPlan, and
// cmd/radiosim runs every run, single or -trials, as a one-config plan
// through RunPlan. Every trial runs its descriptor through
// protocol.Descriptor.Execute.
package campaign

import (
	"encoding/json"
	"fmt"
	"io"
	"runtime"
	"sync"
	"time"

	"radionet/internal/graph"
	"radionet/internal/obs"
	"radionet/internal/precompute"
	"radionet/internal/protocol"
	"radionet/internal/radio"
	"radionet/internal/rng"
)

// Task names the protocol problem a trial solves. It aliases
// protocol.Task: any task with registered descriptors — including tasks
// introduced by new algorithm packages — is runnable in a matrix.
type Task = protocol.Task

// The two historical tasks, re-exported for convenience; see
// protocol.Tasks() for the full live set.
const (
	Broadcast = protocol.Broadcast
	Leader    = protocol.Leader
)

// AlgoSpec selects one algorithm for one task.
type AlgoSpec struct {
	Task Task   `json:"task"`
	Algo string `json:"algo"`
}

func (a AlgoSpec) String() string { return string(a.Task) + ":" + a.Algo }

// Matrix is the declarative description of a campaign: every topology is
// crossed with every (task, algorithm) pair, and each resulting
// configuration is repeated for Seeds independent trials.
type Matrix struct {
	// Topologies are topology specs like "grid:16x16" or "gnp:400:0.01"
	// (see ParseTopology for the grammar).
	Topologies []string `json:"topologies"`
	// Algorithms are the (task, algorithm) pairs to run on every topology.
	Algorithms []AlgoSpec `json:"algorithms"`
	// Faults is what remains of the removed fault axis: empty, or the one
	// value "none". "none" runs the same trials, with the same seeds, as
	// an empty axis and adds each summary's reach distribution
	// (ConfigSummary.Reach) and the sink's reach columns. Any other value
	// is an error.
	Faults []string `json:"faults,omitempty"`
	// Seeds is the number of independent trials per configuration.
	Seeds int `json:"seeds"`
	// MasterSeed determines every random choice of the campaign: topology
	// generation and each trial's RNG stream.
	MasterSeed uint64 `json:"master_seed"`
	// MaxRounds caps each trial (0 selects per-algorithm whp budgets).
	MaxRounds int64 `json:"max_rounds,omitempty"`
}

// LoadMatrix reads a Matrix from JSON, rejecting unknown fields.
func LoadMatrix(r io.Reader) (Matrix, error) {
	var m Matrix
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&m); err != nil {
		return Matrix{}, fmt.Errorf("campaign: config: %w", err)
	}
	return m, nil
}

// Config is one expanded (topology, task, algorithm) cell of the matrix.
type Config struct {
	Topology string // canonical topology spec
	// Key is the config's topology-product content key (spec + topo
	// seed): configs with equal keys share one graph, diameter and
	// dense-adjacency build through the precompute store. G and D are
	// nil/0 on a plan that has not been materialized yet (Plan.
	// Materialize; Matrix.Expand materializes before returning).
	Key precompute.Key
	G   *graph.Graph
	D   int // estimated hop diameter, as the model assumes known

	Spec AlgoSpec
	// reach marks a cell of a matrix with Faults {"none"}: its summary
	// carries the reach distribution.
	reach bool
	// Tuning and Sources reach the descriptor's BuildParams as they are;
	// nil (as Expand leaves them) selects the algorithm defaults and the
	// descriptor's trial sources. A tuned config never shares a scratch.
	Tuning  any
	Sources map[int]int64
}

// Trial is one scheduled protocol run.
type Trial struct {
	// Index is the position in the deterministic trial order.
	Index int
	// Cfg indexes Plan.Configs.
	Cfg int
	// Rep is the repetition number within the configuration.
	Rep int
	// Seed is the trial's independent RNG stream. Expand derives it with
	// TrialSeed; a caller-built plan sets it directly.
	Seed uint64
}

// Plan is an expanded Matrix, or a caller-built one for RunPlan: the
// configuration list and the flat, deterministically ordered trial list.
type Plan struct {
	Configs []Config
	Trials  []Trial
	// Max caps each trial's rounds (0 selects per-algorithm whp budgets).
	Max int64

	// topos are the unique topology products the plan references, in
	// first-reference order, with their pending build closures. Emptied
	// by Materialize.
	topos []planTopo
}

// planTopo is one unique topology product: expansion dedups by content
// key, so an 8-algorithm matrix holds one planTopo per topology entry,
// not 8.
type planTopo struct {
	key   precompute.Key
	build func() *graph.Graph
	cfgs  []int // indexes into Plan.Configs sharing this product
}

// TopoBuild reports how one unique topology product was materialized:
// its key, where it came from (built / in-memory / disk cache), the wall
// time spent, and the first configuration referencing it (the one its
// setup time is attributed to).
type TopoBuild struct {
	Key     precompute.Key
	Outcome precompute.Outcome
	Wall    time.Duration
	First   int
}

// Materialize resolves every unique topology product through the store —
// nil store means always build — across a worker pool (workers as in
// ResolveWorkers), filling Config.G and Config.D for every configuration.
// Products are deterministic functions of their keys, so materialization
// order and parallelism never change a sink byte. Idempotent: a second
// call returns nil.
func (p *Plan) Materialize(store *precompute.Store, workers int) []TopoBuild {
	if len(p.topos) == 0 {
		return nil
	}
	builds := make([]TopoBuild, len(p.topos))
	ForEachWorker(workers, len(p.topos), func(_, i int) {
		t := &p.topos[i]
		start := time.Now() //lint:wallclock setup timing is telemetry (manifest only), never part of trial output
		prod, out := store.GetOrBuild(t.key, t.build)
		wall := time.Since(start) //lint:wallclock setup timing is telemetry (manifest only), never part of trial output
		for _, ci := range t.cfgs {
			p.Configs[ci].G = prod.G
			p.Configs[ci].D = prod.D
		}
		builds[i] = TopoBuild{Key: t.key, Outcome: out, Wall: wall, First: t.cfgs[0]}
	})
	p.topos = nil
	return builds
}

// Expand validates the matrix, builds the deterministic trial list and
// materializes every topology product (seeded from the master seed), so
// the returned plan is immutable and safe for concurrent trial execution.
// Campaign.Run uses the two-step form (expand + Materialize) instead, to
// route product construction through the precompute store.
func (m Matrix) Expand() (*Plan, error) {
	p, err := m.expand()
	if err != nil {
		return nil, err
	}
	p.Materialize(nil, 0)
	return p, nil
}

// expand is Expand without materialization: configs carry content keys
// (Config.Key) but no graphs until Plan.Materialize runs. Keys dedup
// identical topology products at expansion time — every algorithm cell
// of one topology entry references a single pending build, which is what
// makes a wide matrix's setup O(topologies) instead of O(configs).
func (m Matrix) expand() (*Plan, error) {
	if len(m.Topologies) == 0 {
		return nil, fmt.Errorf("campaign: matrix has no topologies")
	}
	if len(m.Algorithms) == 0 {
		return nil, fmt.Errorf("campaign: matrix has no algorithms")
	}
	if m.Seeds <= 0 {
		return nil, fmt.Errorf("campaign: matrix needs seeds > 0")
	}
	for _, a := range m.Algorithms {
		if _, err := lookup(a); err != nil {
			return nil, err
		}
	}
	reach := len(m.Faults) > 0
	if reach && (len(m.Faults) != 1 || m.Faults[0] != "none") {
		return nil, fmt.Errorf("campaign: the fault axis was removed; faults accepts only [\"none\"], got %q", m.Faults)
	}
	p := &Plan{Max: m.MaxRounds}
	// Graph generation draws from its own stream family, disjoint from
	// TrialSeed's. Fork's SplitMix64-based derivation keeps streams
	// independent even for adjacent ids.
	topoStreams := rng.New(m.MasterSeed).Fork(0x70b0)
	topoIdx := make(map[precompute.Key]int)
	for ti, spec := range m.Topologies {
		topo, err := ParseTopology(spec)
		if err != nil {
			return nil, err
		}
		// The per-entry seed derivation is unchanged from the eager-build
		// era: duplicate topology entries keep distinct seeds (hence
		// distinct keys and graphs), preserving historical output exactly.
		seed := topoStreams.Fork(uint64(ti)).Uint64()
		key := precompute.Key{Spec: topo.Spec, Seed: seed}
		t, ok := topoIdx[key]
		if !ok {
			t = len(p.topos)
			topoIdx[key] = t
			build := topo.Build
			p.topos = append(p.topos, planTopo{key: key, build: func() *graph.Graph { return build(seed) }})
		}
		for _, a := range m.Algorithms {
			p.topos[t].cfgs = append(p.topos[t].cfgs, len(p.Configs))
			p.Configs = append(p.Configs, Config{Topology: topo.Spec, Key: key, Spec: a, reach: reach})
		}
	}
	for ci := range p.Configs {
		for rep := 0; rep < m.Seeds; rep++ {
			p.Trials = append(p.Trials, Trial{
				Index: len(p.Trials),
				Cfg:   ci,
				Rep:   rep,
				Seed:  TrialSeed(m.MasterSeed, ci, rep),
			})
		}
	}
	return p, nil
}

// TrialSeed is the seed of repetition rep of configuration cfg under a
// master seed: the one trial-seed derivation, shared by Matrix expansion,
// the experiment tables and radiosim's -trials. Every (master, cfg, rep)
// gets its own forked stream, so no two trials share randomness.
func TrialSeed(master uint64, cfg, rep int) uint64 {
	return rng.New(master).Fork(0x7291a1).Fork(uint64(cfg)<<32 | uint64(rep)).Uint64()
}

// Campaign binds a Matrix to execution parameters.
type Campaign struct {
	Matrix
	// Workers is the worker-pool size (0 = GOMAXPROCS).
	Workers int
	// EngineShards controls intra-round sharding inside each trial's
	// engine (see radio.Engine.SetShards — output is bit-exact at any
	// value, so this only moves wall time). 0 auto-splits the cores left
	// over by trial-level parallelism: GOMAXPROCS/workers shards per
	// trial, and only on configurations large enough to profit
	// (n >= shardMinNodes). 1 disables sharding; k > 1 requests k shards
	// on every configuration, capped by radio.ShardCount.
	EngineShards int
	// Timings includes wall-time aggregates in the output. They are
	// non-deterministic, so sinks omit them unless asked.
	Timings bool
	// Cache, when non-nil, routes topology-product construction through
	// the precompute store (-cache-dir wires a disk-backed one): products
	// already in the store — from an earlier run of the same process or,
	// disk-backed, any earlier process — skip their graph build entirely.
	// Cached products are bit-identical to built ones, so the cache moves
	// setup wall time only, never a sink byte.
	Cache *precompute.Store

	// The telemetry surface. All three fields are strictly output-neutral:
	// they observe the run (engine rounds, trial outcomes, wall times)
	// without changing a byte of what reaches the sinks, at any Workers.
	//
	// Obs, when non-nil, collects engine counters (obs.Engine*), trial
	// histograms (obs.Trial*) and per-worker utilization counters
	// ("worker.NN.busy_us"/"worker.NN.trials") into the registry.
	Obs *obs.Registry
	// Progress, when non-nil, receives a live \r-rewritten status line
	// (done/total, ETA, current config). Point it at stderr, never at a
	// sink stream.
	Progress io.Writer
	// Stats, when non-nil, is filled with the run's execution record
	// (whole-run and per-config wall times) for manifests and benchmarks.
	Stats *RunStats
	// Hook, when non-nil, observes every round of every trial's engines,
	// after the Obs engine collector (cmd/radiosim's -trace recorder). It
	// runs on every worker, so it must be safe for concurrent use when
	// more than one worker runs.
	Hook radio.RoundHook
}

// shardMinNodes gates auto-sharding: below this node count the per-wave
// goroutine spawns and the shard arenas cost more than the split saves,
// and trial-level parallelism already covers small configurations.
const shardMinNodes = 1 << 15

// resolveShards returns the intra-round shard count one n-node
// configuration's engines run under the given worker count (see
// EngineShards), after the engine's cap (radio.ShardCount).
func (c *Campaign) resolveShards(n, workers int) int {
	if c.EngineShards >= 1 {
		return radio.ShardCount(n, c.EngineShards)
	}
	if n < shardMinNodes || workers <= 0 {
		return 1
	}
	return radio.ShardCount(n, max(runtime.GOMAXPROCS(0)/workers, 1))
}

// Run expands the matrix, executes every trial across the worker pool, and
// streams one ConfigSummary per configuration — in deterministic
// configuration order, as soon as each configuration completes — to every
// sink. It returns the summaries; sinks are closed before returning.
func (c *Campaign) Run(sinks ...Sink) ([]ConfigSummary, error) {
	plan, err := c.expand()
	if err != nil {
		for _, sk := range sinks {
			sk.Close() // honor the close-before-return contract
		}
		return nil, err
	}
	// Setup phase: materialize the deduplicated topology products through
	// the precompute store (cache-backed when Cache is set), across the
	// worker pool. Setup is timed separately from the run wall
	// (RunStats.Setup vs .Wall, the manifest's setup_ms split); the run
	// wall has excluded setup since the eager-build era, so the split adds
	// data without moving any existing measurement's meaning.
	setupStart := time.Now() //lint:wallclock setup wall time is telemetry, never part of trial output
	cfgSetup := make([]time.Duration, len(plan.Configs))
	builds := plan.Materialize(c.Cache, c.Workers)
	cacheStatus := "off"
	if c.Cache.Dir() != "" {
		cacheStatus = "warm"
	}
	var cacheHits, cacheMisses, cacheBytes int64
	for _, tb := range builds {
		cfgSetup[tb.First] += tb.Wall
		cacheBytes += tb.Outcome.Bytes
		switch tb.Outcome.Source {
		case precompute.SourceBuilt:
			cacheMisses++
			if cacheStatus == "warm" {
				cacheStatus = "cold"
			}
			if c.Obs != nil {
				c.Obs.Timer(obs.PrecomputeBuild(tb.Key.Spec, tb.Key.Seed)).Observe(tb.Wall)
			}
		default: // disk or in-memory: the build was skipped
			cacheHits++
		}
	}
	if c.Obs != nil && c.Cache != nil {
		c.Obs.Counter(obs.PrecomputeCacheHits).Add(cacheHits)
		c.Obs.Counter(obs.PrecomputeCacheMisses).Add(cacheMisses)
		c.Obs.Counter(obs.PrecomputeCacheBytes).Add(cacheBytes)
	}
	// Telemetry setup. All collectors are nil-safe no-ops when Obs is nil,
	// and none of them touches the sink stream.
	workers := ResolveWorkers(c.Workers, len(plan.Trials))
	roundsBefore := int64(0)
	if c.Obs != nil {
		roundsBefore = c.Obs.Counter(obs.EngineRounds).Value()
	}
	prog := newProgress(c.Progress, len(plan.Trials))
	cfgWall := make([]time.Duration, len(plan.Configs))

	results := make([]TrialResult, len(plan.Trials))
	var (
		mu        sync.Mutex
		remaining = make([]int, len(plan.Configs))
		nextCfg   int
		summaries = make([]ConfigSummary, 0, len(plan.Configs))
		sinkErr   error
	)
	for i := range remaining {
		remaining[i] = c.Seeds
	}
	// Emit (under mu) every configuration whose trials have all completed,
	// strictly in configuration order so output is deterministic.
	flush := func() {
		for nextCfg < len(plan.Configs) && remaining[nextCfg] == 0 {
			s := summarize(&plan.Configs[nextCfg], results[nextCfg*c.Seeds:(nextCfg+1)*c.Seeds], c.Timings)
			summaries = append(summaries, s)
			for _, sk := range sinks {
				if err := sk.Emit(s); err != nil && sinkErr == nil {
					sinkErr = err
				}
			}
			nextCfg++
		}
	}
	start := time.Now() //lint:wallclock campaign wall time is telemetry, never part of trial output
	setup := start.Sub(setupStart)
	shardsUsed := c.execute(plan, results, func(tr Trial, res TrialResult) {
		mu.Lock()
		defer mu.Unlock()
		remaining[tr.Cfg]--
		cfgWall[tr.Cfg] += res.Wall
		prog.step(&plan.Configs[tr.Cfg])
		flush()
	})
	prog.finish()
	wall := time.Since(start) //lint:wallclock throughput gauge only; sink stream is untouched
	if c.Obs != nil {
		if secs := wall.Seconds(); secs > 0 {
			delta := c.Obs.Counter(obs.EngineRounds).Value() - roundsBefore
			c.Obs.Gauge(obs.EngineRoundsPerSec).Set(int64(float64(delta) / secs))
		}
	}
	if c.Stats != nil {
		*c.Stats = RunStats{Wall: wall, Setup: setup, Cache: cacheStatus, Workers: workers, Shards: shardsUsed, Configs: make([]ConfigStats, len(plan.Configs))}
		for ci := range plan.Configs {
			cfg := &plan.Configs[ci]
			cs := &c.Stats.Configs[ci]
			cs.Name = cfg.Name()
			cs.N, cs.D = cfg.G.N(), cfg.D
			cs.Trials = c.Seeds
			cs.Wall = cfgWall[ci]
			cs.Setup = cfgSetup[ci]
			if ci < len(summaries) {
				cs.Failures = summaries[ci].Failures
				cs.RoundsMean = summaries[ci].Rounds.Mean
			}
		}
	}
	for _, sk := range sinks {
		if err := sk.Close(); err != nil && sinkErr == nil {
			sinkErr = err
		}
	}
	return summaries, sinkErr
}

// RunPlan runs every trial of a materialized plan — a caller-built one
// (configs carrying their graphs, trials carrying their own seeds) or
// Matrix.Expand's — through Run's trial fan-out and returns the per-trial
// results in trial order. Results are identical at every Workers and
// EngineShards value; Obs and Hook observe the trials as in Run. Stats,
// when set, receives only the resolved Workers and Shards the trials ran
// with; the other sink-side fields (Timings, Progress) and Cache are not
// used.
func (c *Campaign) RunPlan(plan *Plan) []TrialResult {
	results := make([]TrialResult, len(plan.Trials))
	shards := c.execute(plan, results, nil)
	if c.Stats != nil {
		*c.Stats = RunStats{Workers: ResolveWorkers(c.Workers, len(plan.Trials)), Shards: shards}
	}
	return results
}

// execute is the campaign's one trial fan-out, behind Run and RunPlan. It
// runs every trial across the worker pool, writing its result to results
// by trial index and recording it into the Obs trial histograms and
// per-worker utilization counters. each, when non-nil, observes each
// result on its worker right after the trial. It returns the largest
// engine shard count any config used.
func (c *Campaign) execute(plan *Plan, results []TrialResult, each func(tr Trial, res TrialResult)) int {
	// Intra-round sharding, resolved per configuration (auto mode skips
	// small graphs). Output is bit-exact at any count — the knob only
	// moves wall time, so it shares the telemetry's neutrality contract.
	workers := ResolveWorkers(c.Workers, len(plan.Trials))
	cfgShards := make([]int, len(plan.Configs))
	shardsUsed := 1
	for ci := range plan.Configs {
		cfgShards[ci] = c.resolveShards(plan.Configs[ci].G.N(), workers)
		shardsUsed = max(shardsUsed, cfgShards[ci])
	}
	var shardHook radio.ShardHook
	if shardsUsed > 1 {
		shardHook = obs.NewShardCollector(c.Obs, shardsUsed).Hook()
	}
	engineHook := radio.ChainHooks(obs.NewEngineCollector(c.Obs).Hook(), c.Hook)
	trialObs := obs.NewTrialCollector(c.Obs)
	var workerBusy, workerTrials []*obs.Counter
	if c.Obs != nil {
		workerBusy = make([]*obs.Counter, workers)
		workerTrials = make([]*obs.Counter, workers)
		for w := range workerBusy {
			workerBusy[w] = c.Obs.Counter(fmt.Sprintf("worker.%02d.busy_us", w))
			workerTrials[w] = c.Obs.Counter(fmt.Sprintf("worker.%02d.trials", w))
		}
	}
	ForEachWorker(c.Workers, len(plan.Trials), func(w, i int) {
		tr := plan.Trials[i]
		res := runTrial(&plan.Configs[tr.Cfg], tr.Seed, plan.Max,
			trialOpts{hook: engineHook, shards: cfgShards[tr.Cfg], shardHook: shardHook})
		results[i] = res
		trialObs.Record(res.Rounds, res.Wall, res.Done, res.Budget)
		if workerBusy != nil {
			workerBusy[w].Add(res.Wall.Microseconds())
			workerTrials[w].Inc()
		}
		if each != nil {
			each(tr, res)
		}
	})
	return shardsUsed
}
