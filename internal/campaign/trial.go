package campaign

import (
	"fmt"
	"time"

	"radionet/internal/precompute"
	"radionet/internal/protocol"
	"radionet/internal/radio"

	// Populate the protocol registry with the full algorithm catalogue.
	// This import — not any code in this package — decides what a
	// campaign can run; new algorithms register themselves and need no
	// changes here.
	_ "radionet/internal/protocol/all"
)

// lookup resolves an AlgoSpec against the protocol registry.
func lookup(a AlgoSpec) (*protocol.Descriptor, error) {
	task := protocol.Task(a.Task)
	if !protocol.KnownTask(task) {
		known := ""
		for i, t := range protocol.Tasks() {
			if i > 0 {
				known += " "
			}
			known += string(t)
		}
		return nil, fmt.Errorf("campaign: unknown task %q (known: %s)", a.Task, known)
	}
	desc, ok := protocol.Lookup(task, a.Algo)
	if !ok {
		return nil, fmt.Errorf("campaign: unknown %s algorithm %q (known: %s)", a.Task, a.Algo, protocol.KnownList(task))
	}
	return desc, nil
}

// TrialResult reports one protocol run.
type TrialResult struct {
	// Rounds is the executed round count (budget-capped on failure).
	Rounds int64
	// Tx is the total engine transmission count of the trial.
	Tx int64
	// Done reports completion within budget and, where the algorithm
	// exposes a postcondition check (protocol.Result.Verify), a verified
	// postcondition.
	Done bool
	// Err records a constructor failure; the trial counts as failed.
	Err string
	// Reason classifies a failed trial: "" for completed trials, "budget"
	// when the round budget ran out, "verify" when the run finished but
	// its postcondition check failed, "error" on a constructor failure.
	Reason string
	// Survivors, Reached and ReachTarget are the fault-axis reach
	// accounting (zero on campaigns without a fault axis): never-crashing
	// nodes, nodes that reached the completion condition among the
	// completion target, and the survivor-scoped completion target itself.
	Survivors   int
	Reached     int
	ReachTarget int
	// Wall is the measured execution time. It is inherently
	// non-deterministic and excluded from sink output unless requested.
	Wall time.Duration
	// Budget is the trial's effective round budget — maxRounds when the
	// caller set one, else the runner's resolved default where it exposes
	// one (protocol.Budgeted), else 0. Telemetry only (budget-fraction
	// histograms); never aggregated into sink output.
	Budget int64
	// Precompute is the charged precomputation round cost
	// (protocol.Result.Precompute; 0 for the oblivious baselines).
	Precompute int64
	// Leader, LeaderID and Candidates are the election outcome of a
	// protocol.LeaderRunner: the elected node (-1 unless an election
	// completed), the winning ID (set only when Done) and the size of the
	// sampled candidate set.
	Leader     int
	LeaderID   int64
	Candidates int
}

// Scratch carries the reusable, seed-independent part of one Config's
// per-trial work, built by the configuration's descriptor (e.g. a shared
// compete.Pre for the clustering pipeline, so repeated trials on the same
// graph skip the parameter-grid computation). A Scratch is safe for
// concurrent use — workers at any -workers value may share one — and
// sharing it changes no output bit (the per-seed randomness is drawn
// exactly as without it).
type Scratch struct {
	val any
}

// NewScratch builds the per-config scratch for cfg. Configs whose
// descriptor has no reusable precomputation (or that fail to resolve —
// Expand reports that loudly) get an empty scratch.
func NewScratch(cfg *Config) *Scratch {
	desc, err := lookup(cfg.Spec)
	if err != nil || desc.NewScratch == nil {
		return &Scratch{}
	}
	return &Scratch{val: desc.NewScratch(cfg.G, cfg.D, cfg.Tuning)}
}

// scratchGroupKey identifies one shareable scratch build: the topology
// product key crossed with the descriptor's declared ScratchKey. Configs
// differing only in fault spec or sources always group (NewScratch never
// sees them); configs of different descriptors group exactly when both
// descriptors declare the same ScratchKey (e.g. broadcast:cd17 and
// leader:cd17 share "compete/pre"). The key holds for default tuning
// only, so tuned configs never group.
type scratchGroupKey struct {
	topo    precompute.Key
	scratch string
}

// buildScratches constructs the per-config scratches for a materialized
// plan, deduplicated by (topology product, descriptor ScratchKey) and
// built concurrently across the worker pool. Configs without reusable
// precomputation get the empty scratch for free; tuned configs and
// configs whose descriptor opts out of sharing (ScratchKey "") build one
// scratch per config, as the serial setup phase always did (and as
// radionet.Network.scratchFor does). Each group's build wall time is
// added to cfgSetup at the group's first config index. Sharing is
// output-neutral: scratches are seed-independent by contract, and equal
// group keys imply equal constructor inputs.
func buildScratches(plan *Plan, workers int, cfgSetup []time.Duration) []*Scratch {
	scratches := make([]*Scratch, len(plan.Configs))
	type group struct {
		first int
		cfgs  []int
	}
	var groups []group
	gidx := make(map[scratchGroupKey]int)
	for ci := range plan.Configs {
		cfg := &plan.Configs[ci]
		desc, err := lookup(cfg.Spec)
		if err != nil || desc.NewScratch == nil {
			scratches[ci] = &Scratch{}
			continue
		}
		if desc.ScratchKey == "" || cfg.Tuning != nil {
			groups = append(groups, group{first: ci, cfgs: []int{ci}})
			continue
		}
		gk := scratchGroupKey{topo: cfg.Key, scratch: desc.ScratchKey}
		gi, ok := gidx[gk]
		if !ok {
			gi = len(groups)
			gidx[gk] = gi
			groups = append(groups, group{first: ci})
		}
		groups[gi].cfgs = append(groups[gi].cfgs, ci)
	}
	ForEachWorker(workers, len(groups), func(_, gi int) {
		g := &groups[gi]
		start := time.Now() //lint:wallclock setup timing is telemetry (manifest only), never part of trial output
		scr := NewScratch(&plan.Configs[g.first])
		wall := time.Since(start) //lint:wallclock setup timing is telemetry (manifest only), never part of trial output
		for _, ci := range g.cfgs {
			scratches[ci] = scr
		}
		// Distinct groups have distinct first indexes, so these writes
		// never race; Materialize's attribution wrote before this pool
		// started.
		cfgSetup[g.first] += wall
	})
	return scratches
}

// trialOpts carries the engine-level execution knobs threaded from the
// campaign into each trial's BuildParams: the shared obs round hook, the
// intra-round shard count, and the per-shard busy-time hook. All of them
// are output-neutral — hooks observe, and sharding is bit-exact at any
// count — so equal (cfg, seed) trials produce identical results under any
// opts.
type trialOpts struct {
	hook      radio.RoundHook
	shards    int
	shardHook radio.ShardHook
}

// runTrial is the whole per-trial dispatch: resolve the descriptor,
// realize the fault plan, and run it through protocol.Execute on the
// config's shared scratch (nil, or an empty one for a descriptor that
// expects a scratch, builds a fresh one) with the campaign's execution
// knobs. Every algorithm-specific decision — constructors, budget
// defaults, metric extraction — lives behind the registry.
func runTrial(cfg *Config, seed uint64, maxRounds int64, scr *Scratch, opts trialOpts) (res TrialResult) {
	if scr == nil || scr.val == nil {
		scr = NewScratch(cfg)
	}
	start := time.Now() //lint:wallclock TrialResult.Wall is telemetry, excluded from the sink stream
	defer func() {
		res.Wall = time.Since(start) //lint:wallclock TrialResult.Wall is telemetry, excluded from the sink stream
	}()
	desc, err := lookup(cfg.Spec)
	if err != nil {
		return TrialResult{Err: err.Error(), Reason: "error", Leader: -1}
	}
	sources := cfg.Sources
	if sources == nil {
		sources = desc.DefaultSources()
	}
	// The trial's fault plan: fault sites and coin streams derive from the
	// trial seed (deterministic at any worker count), and the descriptor's
	// protected nodes — the broadcast source, a leader election's would-be
	// winner — are never selected, so the completion target never
	// collapses to the empty set. The None guard isn't just an
	// optimization: ProtectedNodes may resample a leader election's
	// candidate set, and unfaulted trials must not pay that per trial.
	var plan *radio.FaultPlan
	if desc.Caps.Faults && !cfg.Fault.None() {
		plan = cfg.Fault.TrialPlan(cfg.G, seed, desc.ProtectedNodes(cfg.G.N(), seed, sources)...)
	}
	out, err := desc.Execute(protocol.BuildParams{
		G:         cfg.G,
		D:         cfg.D,
		Seed:      seed,
		Sources:   sources,
		Faults:    plan,
		Scratch:   scr.val,
		Tuning:    cfg.Tuning,
		Hook:      opts.hook,
		Shards:    opts.shards,
		ShardHook: opts.shardHook,
	}, maxRounds)
	if err != nil {
		return TrialResult{Err: err.Error(), Reason: "error", Leader: -1}
	}
	res = TrialResult{Rounds: out.Rounds, Tx: out.Tx, Done: out.Done, Budget: out.Budget, Precompute: out.Precompute, Leader: -1}
	if lr, ok := out.Runner.(protocol.LeaderRunner); ok {
		res.Leader, res.Candidates = lr.Leader(), len(lr.Candidates())
		if out.Done {
			res.LeaderID = lr.LeaderID()
		}
	}
	switch {
	case out.VerifyErr != nil:
		// Finished within budget but the postcondition failed — a
		// distinct failure class fail_reasons must not fold into "budget".
		res.Reason = "verify"
	case !out.Done:
		res.Reason = "budget"
	}
	// Campaigns without a fault axis (Fault.Spec == "") leave the reach
	// fields zero so their aggregates — and sink bytes — are unchanged.
	if cfg.Fault.Spec != "" {
		res.Survivors = cfg.G.N()
		if plan != nil {
			res.Survivors = plan.Survivors()
		}
		res.Reached, res.ReachTarget = out.Reached, out.ReachTarget
	}
	return res
}
