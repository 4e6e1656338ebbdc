package campaign

import (
	"fmt"
	"time"

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
	// Reached and ReachTarget are the runner's reach accounting
	// (protocol.Result): nodes that reached the completion condition, and
	// the completion target n.
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

// runTrial is the whole per-trial dispatch: resolve the descriptor and
// run it through protocol.Execute with the campaign's execution knobs;
// the descriptor's Build makes the trial's own precomputation. Every
// algorithm-specific decision — constructors, budget defaults, metric
// extraction — lives behind the registry.
func runTrial(cfg *Config, seed uint64, maxRounds int64, opts trialOpts) (res TrialResult) {
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
	out, err := desc.Execute(protocol.BuildParams{
		G:         cfg.G,
		D:         cfg.D,
		Seed:      seed,
		Sources:   sources,
		Tuning:    cfg.Tuning,
		Hook:      opts.hook,
		Shards:    opts.shards,
		ShardHook: opts.shardHook,
	}, maxRounds)
	if err != nil {
		return TrialResult{Err: err.Error(), Reason: "error", Leader: -1}
	}
	res = TrialResult{
		Rounds: out.Rounds, Tx: out.Tx, Done: out.Done, Budget: out.Budget, Precompute: out.Precompute,
		Reached: out.Reached, ReachTarget: out.ReachTarget, Leader: -1,
	}
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
	return res
}
