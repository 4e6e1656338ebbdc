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
// cmd/campaign drives matrices from flags or a JSON config file;
// internal/exp routes its repetition loops through ForEach so
// cmd/experiments parallelizes for free; cmd/radiosim uses the same
// executor for its -trials fan-out mode.
package campaign

import (
	"encoding/json"
	"fmt"
	"io"
	"runtime"
	"strings"
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

// faultCapable renders the task's fault-capable algorithm names for
// error messages ("cd17 hw16 ..." or "none").
func faultCapable(task Task) string {
	var names []string
	for _, d := range protocol.ByTask(task) {
		if d.Caps.Faults {
			names = append(names, d.Name)
		}
	}
	if len(names) == 0 {
		return "none"
	}
	return strings.Join(names, " ")
}

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
	// Faults are fault-scenario specs (see ParseFaultSpec) crossed with
	// every (topology, algorithm) cell: each spec becomes its own
	// configuration, realized per trial with deterministic fault-site
	// selection. Empty means unfaulted (and keeps the expansion, trial
	// seeds and output byte-identical to a pre-fault-axis campaign). The
	// axis supports broadcast tasks only.
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

// Config is one expanded (topology, task, algorithm, fault) cell of the
// matrix.
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
	// Fault is the cell's fault scenario; the zero value (Spec "") marks a
	// campaign without a fault axis.
	Fault FaultSpec
}

// Trial is one scheduled protocol run.
type Trial struct {
	// Index is the position in the deterministic trial order.
	Index int
	// Cfg indexes Plan.Configs.
	Cfg int
	// Rep is the repetition number within the configuration.
	Rep int
	// Seed is the trial's independent RNG stream, a pure function of
	// (master seed, configuration, repetition).
	Seed uint64
}

// Plan is an expanded Matrix: the configuration list and the flat,
// deterministically ordered trial list.
type Plan struct {
	Configs []Config
	Trials  []Trial
	Seeds   int
	Max     int64

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
// identical topology products at expansion time — every (algorithm,
// fault) cell of one topology entry references a single
// pending build, which is what makes a wide matrix's setup O(topologies)
// instead of O(configs).
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
	descs := make([]*protocol.Descriptor, len(m.Algorithms))
	for i, a := range m.Algorithms {
		d, err := lookup(a)
		if err != nil {
			return nil, err
		}
		descs[i] = d
	}
	// The fault axis: one FaultSpec per configuration. An empty axis
	// expands to the single zero spec, leaving configuration indices (and
	// hence trial seeds) identical to a matrix without the axis. Crossing
	// an effective fault spec with an algorithm whose descriptor lacks the
	// fault capability is a loud configuration error — never a silently
	// unfaulted run.
	faults := []FaultSpec{{}}
	if len(m.Faults) > 0 {
		faults = faults[:0]
		for _, s := range m.Faults {
			fs, err := ParseFaultSpec(s)
			if err != nil {
				return nil, err
			}
			faults = append(faults, fs)
		}
		for i, a := range m.Algorithms {
			if descs[i].Caps.Faults {
				continue
			}
			for _, fs := range faults {
				if !fs.None() {
					return nil, fmt.Errorf("campaign: algorithm %s does not support the fault axis (spec %q); fault-capable %s algorithms: %s",
						a, fs.Spec, a.Task, faultCapable(protocol.Task(a.Task)))
				}
			}
		}
	}
	p := &Plan{Seeds: m.Seeds, Max: m.MaxRounds}
	// Two disjoint stream families derived from the master seed: one per
	// topology (graph generation), one per trial. Fork's SplitMix64-based
	// derivation keeps streams independent even for adjacent ids.
	master := rng.New(m.MasterSeed)
	topoStreams := master.Fork(0x70b0)
	trialStreams := master.Fork(0x7291a1)
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
			for _, fs := range faults {
				p.topos[t].cfgs = append(p.topos[t].cfgs, len(p.Configs))
				p.Configs = append(p.Configs, Config{Topology: topo.Spec, Key: key, Spec: a, Fault: fs})
			}
		}
	}
	for ci := range p.Configs {
		for rep := 0; rep < m.Seeds; rep++ {
			p.Trials = append(p.Trials, Trial{
				Index: len(p.Trials),
				Cfg:   ci,
				Rep:   rep,
				Seed:  trialStreams.Fork(uint64(ci)<<32 | uint64(rep)).Uint64(),
			})
		}
	}
	return p, nil
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
	// (n >= shardMinNodes). 1 disables sharding; k > 1 forces exactly k
	// shards on every configuration.
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
}

// shardMinNodes gates auto-sharding: below this node count the per-wave
// goroutine spawns and the shard arenas cost more than the split saves,
// and trial-level parallelism already covers small configurations.
const shardMinNodes = 1 << 15

// resolveShards returns the effective intra-round shard count for one
// n-node configuration under the given worker count (see EngineShards).
func (c *Campaign) resolveShards(n, workers int) int {
	if c.EngineShards >= 1 {
		return c.EngineShards
	}
	if n < shardMinNodes || workers <= 0 {
		return 1
	}
	k := runtime.GOMAXPROCS(0) / workers
	if k < 1 {
		k = 1
	}
	return k
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
	// the precompute store (cache-backed when Cache is set), then build
	// the deduplicated scratches — both across the worker pool. Setup is
	// timed separately from the run wall (RunStats.Setup vs .Wall, the
	// manifest's setup_ms split); the run wall has excluded setup
	// since the eager-build era, so the split adds data without moving
	// any existing measurement's meaning.
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
	scratches := buildScratches(plan, c.Workers, cfgSetup)
	setup := time.Since(setupStart) //lint:wallclock setup wall time is telemetry, never part of trial output

	results := make([]TrialResult, len(plan.Trials))
	// Telemetry setup. All collectors are nil-safe no-ops when Obs is nil,
	// and none of them touches the sink stream.
	start := time.Now() //lint:wallclock campaign wall time is telemetry, never part of trial output
	workers := ResolveWorkers(c.Workers, len(plan.Trials))
	// Intra-round sharding, resolved per configuration (auto mode skips
	// small graphs). Output is bit-exact at any count — the knob only
	// moves wall time, so it shares the telemetry section's neutrality
	// contract.
	cfgShards := make([]int, len(plan.Configs))
	shardsUsed := 1
	for ci := range plan.Configs {
		cfgShards[ci] = c.resolveShards(plan.Configs[ci].G.N(), workers)
		if cfgShards[ci] > shardsUsed {
			shardsUsed = cfgShards[ci]
		}
	}
	var shardHook radio.ShardHook
	if shardsUsed > 1 {
		shardHook = obs.NewShardCollector(c.Obs, shardsUsed).Hook()
	}
	engineHook := obs.NewEngineCollector(c.Obs).Hook()
	trialObs := obs.NewTrialCollector(c.Obs)
	roundsBefore := int64(0)
	var workerBusy, workerTrials []*obs.Counter
	if c.Obs != nil {
		roundsBefore = c.Obs.Counter(obs.EngineRounds).Value()
		workerBusy = make([]*obs.Counter, workers)
		workerTrials = make([]*obs.Counter, workers)
		for w := range workerBusy {
			workerBusy[w] = c.Obs.Counter(fmt.Sprintf("worker.%02d.busy_us", w))
			workerTrials[w] = c.Obs.Counter(fmt.Sprintf("worker.%02d.trials", w))
		}
	}
	prog := newProgress(c.Progress, len(plan.Trials))
	cfgWall := make([]time.Duration, len(plan.Configs))

	var (
		mu        sync.Mutex
		remaining = make([]int, len(plan.Configs))
		nextCfg   int
		summaries = make([]ConfigSummary, 0, len(plan.Configs))
		sinkErr   error
	)
	for i := range remaining {
		remaining[i] = plan.Seeds
	}
	// Emit (under mu) every configuration whose trials have all completed,
	// strictly in configuration order so output is deterministic.
	flush := func() {
		for nextCfg < len(plan.Configs) && remaining[nextCfg] == 0 {
			s := summarize(plan, nextCfg, results, c.Timings)
			summaries = append(summaries, s)
			for _, sk := range sinks {
				if err := sk.Emit(s); err != nil && sinkErr == nil {
					sinkErr = err
				}
			}
			nextCfg++
		}
	}
	ForEachWorker(c.Workers, len(plan.Trials), func(w, i int) {
		tr := plan.Trials[i]
		res := runTrialScratchHook(&plan.Configs[tr.Cfg], tr.Seed, plan.Max, scratches[tr.Cfg],
			trialOpts{hook: engineHook, shards: cfgShards[tr.Cfg], shardHook: shardHook})
		results[i] = res
		trialObs.Record(res.Rounds, res.Wall, res.Done, res.Budget)
		if workerBusy != nil {
			workerBusy[w].Add(res.Wall.Microseconds())
			workerTrials[w].Inc()
		}
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
			cs.Trials = plan.Seeds
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
