// Package protocol is the pluggable-algorithm seam between the algorithm
// library and everything that runs algorithms: the campaign engine
// (internal/campaign), the radionet facade, the CLIs (cmd/radiosim,
// cmd/campaign) and the experiment harness (internal/exp).
//
// Before this package existed, each of those layers carried its own
// hardcoded switch over algorithm names, budget defaults and metric
// extraction, and the switches disagreed (the campaign applied the fault
// axis only to broadcast trials, the facade used a different default
// budget than the campaign, the leader baselines dropped their
// transmission counts). Now an algorithm is a Descriptor — name, aliases,
// task, capabilities, a default budget policy and a Build function
// producing a uniform Runner — registered once by its own package in an
// init-time Register call, and every layer resolves algorithms through
// Lookup/ByTask. Adding an algorithm end-to-end (campaign matrices, the
// facade, both CLIs, the conformance suite) is one new package with a
// register.go plus one blank import in internal/protocol/all; no dispatch
// code changes anywhere (internal/ghle is the proof).
//
// Contracts every registered descriptor must honor (pinned by the
// conformance suite in conformance_test.go):
//
//   - Determinism: equal BuildParams produce runs with identical Results.
//   - Budget: Run(budget) with budget > 0 executes at most budget rounds;
//     budget <= 0 selects the descriptor's documented whp-sufficient
//     default.
//   - Verification: when Result.Verify is non-nil and Done is true,
//     Verify() returns nil.
//   - Faults: a descriptor advertising Caps.Faults accepts a
//     *radio.FaultPlan and scopes completion to the survivor-reachable
//     set, so faulted runs still terminate within the default budget
//     (provided the plan protects the descriptor's Protect nodes).
package protocol

import (
	"sort"

	"radionet/perfbench/frozen/graph"
	"radionet/perfbench/frozen/radio"
)

// Task names the protocol problem a runner solves. Tasks are open-ended:
// registering a descriptor under a new Task makes that task runnable by
// the campaign engine and CLIs without any dispatch changes.
type Task string

// Registered tasks.
const (
	// Broadcast delivers the highest source message to every node.
	Broadcast Task = "broadcast"
	// Leader elects a single leader known to all nodes.
	Leader Task = "leader"
	// Multicast delivers k messages from one source to every node.
	Multicast Task = "multicast"
	// Partition computes a Miller–Peng–Xu cluster assignment distributedly.
	Partition Task = "partition"
)

// TrialSources is the built-in campaign trial convention for seeding a
// task's source set: source-driven tasks inject message value 9 at node
// 0 (the historical campaign convention, which byte-identical output
// depends on); self-seeding tasks (leader election samples its own
// candidates, the partition protocol involves every node) get nil.
// Descriptors under tasks this switch doesn't know override it with
// their own TrialSources hook — see Descriptor.DefaultSources.
func (t Task) TrialSources() map[int]int64 {
	switch t {
	case Broadcast, Multicast:
		return map[int]int64{0: 9}
	default:
		return nil
	}
}

// Caps declares what a descriptor's runners support. Capabilities gate
// configuration validation (e.g. the campaign rejects fault axes on
// descriptors without Faults) and documentation — they never change run
// semantics by themselves.
type Caps struct {
	// Faults: Build accepts a *radio.FaultPlan and completion is
	// survivor-scoped under it.
	Faults bool
	// CollisionDetection: the runner requires the stronger model variant
	// with collision detection (excluded from same-model comparisons).
	CollisionDetection bool
	// Scratch: NewScratch returns reusable seed-independent precomputation
	// (the campaign builds one per configuration and shares it across the
	// seed axis).
	Scratch bool
	// Bulk: the runner drives the engine's BulkActor/BulkReceiver fast
	// paths (informational; see DESIGN.md §5).
	Bulk bool
	// Transport: the runner drives a single engine through ApplyEngine and
	// therefore runs unchanged on any registered transport backend (see
	// radio.Transport and DESIGN.md §12). Composite multi-engine runners
	// and descriptors that bypass ApplyEngine leave it false; the campaign
	// rejects non-simulator transports on them rather than silently
	// running in-process.
	Transport bool
}

// Result is the uniform outcome of one protocol run.
type Result struct {
	// Rounds is the number of rounds executed (budget-capped on failure).
	Rounds int64
	// Tx is the total engine transmission count, summed over every engine
	// the run drove (composite runners like binary-search LE run several).
	Tx int64
	// Done reports completion within budget. Done is the raw protocol
	// completion signal; callers that want a verified postcondition also
	// check Verify.
	Done bool
	// Reached and ReachTarget are the completion-accounting pair: the
	// number of nodes that reached the completion condition among the
	// completion target, and the target itself (survivor-scoped under a
	// fault plan). Both are 0 for runners without reach accounting.
	Reached, ReachTarget int
	// Precompute is the charged precomputation round cost (0 for the
	// oblivious baselines; see DESIGN.md §3).
	Precompute int64
	// Verify, when non-nil, checks the task postcondition after a Done
	// run (e.g. leader election: unique winner, network-wide agreement).
	// It reports an error for incomplete or incorrect runs.
	Verify func() error
}

// Runner is one prepared protocol run. Run executes until completion or
// the budget elapses; budget <= 0 selects the descriptor's default
// whp-sufficient budget policy. A Runner is single-use.
//
// Budget exception: composite runners that split an explicit budget over
// fixed units (binary-search LE's one broadcast per ID bit, sequential
// multicast's one broadcast per message) floor each unit's share to one
// round, so a budget smaller than the unit count may be overshot by up
// to that count; descriptors document their floors in BudgetDoc. Above
// the floor, Run(budget) executes at most budget rounds.
type Runner interface {
	Run(budget int64) Result
}

// Budgeted is an optional Runner extension for telemetry: DefaultBudget
// reports the round budget Run applies when the caller passes budget <= 0
// (the descriptor's documented whp-sufficient policy, resolved for this
// run's topology). The trial runner uses it to compute budget-fraction-
// used metrics; runners without it simply skip that histogram. Call it
// before Run — composite runners may fold an explicit budget into the
// same state.
type Budgeted interface {
	Runner
	DefaultBudget() int64
}

// LeaderRunner is the extra surface leader-task runners expose for callers
// that need the election outcome (the radionet facade, cmd/radiosim).
type LeaderRunner interface {
	Runner
	// Leader returns the elected node, -1 before/without completion.
	Leader() int
	// LeaderID returns the agreed-upon winning ID (valid once Done).
	LeaderID() int64
	// Candidates returns the sampled candidate set (node -> ID).
	Candidates() map[int]int64
}

// BuildParams carries everything a Build function may consume. Unused
// fields are ignored by descriptors that don't support them (but a
// non-nil Faults on a descriptor without Caps.Faults is a Build error —
// silent fault-dropping is exactly the bug this package exists to kill).
type BuildParams struct {
	// G and D are the topology and its (estimated) hop diameter, the two
	// parameters the model assumes known.
	G *graph.Graph
	D int
	// Seed determines every random choice of the run.
	Seed uint64
	// Sources is the task's source set (see Task.TrialSources for the
	// campaign convention); nil for self-seeding tasks.
	Sources map[int]int64
	// Faults, if non-nil, is the trial's realized fault scenario. Only
	// valid on descriptors with Caps.Faults. A plan is single-use: build
	// one per trial.
	Faults *radio.FaultPlan
	// Scratch is the value returned by the descriptor's NewScratch (nil
	// to build fresh). Sharing a scratch never changes output bits.
	Scratch any
	// Tuning is optional algorithm-specific configuration (e.g.
	// compete.Config for the clustering pipeline); nil selects defaults.
	// Descriptors reject tuning values of the wrong type.
	Tuning any
	// Hook, if set, observes every engine round where the runner drives a
	// single engine (composite multi-engine runners may ignore it).
	Hook radio.RoundHook
	// Shards, if > 1, enables intra-round sharding on the runner's engine
	// (see radio.Engine.SetShards); output is bit-exact at any value.
	// 0 and 1 both mean unsharded.
	Shards int
	// ShardHook, if set alongside Shards > 1, receives per-shard busy-time
	// telemetry (see radio.ShardHook).
	ShardHook radio.ShardHook
	// Transport, if non-nil, is the round-executor backend the runner's
	// engine binds to (see radio.Transport). ApplyEngine attaches it last,
	// after the protocol has installed nodes, bulk paths, faults and
	// shards. Only valid on descriptors with Caps.Transport; the caller
	// owns the transport's lifecycle (one engine per transport, Close when
	// the run ends). nil runs in-process, exactly as before the seam.
	Transport radio.Transport
	// Engines, if non-nil, collects every engine the runner constructs
	// (ApplyEngine registers automatically) so the caller can release
	// their resident shard workers deterministically when the trial ends
	// (radio.EngineSet.Close). nil defers teardown to the GC cleanup.
	Engines *radio.EngineSet
}

// ApplyEngine wires the params' engine-level knobs (round hook, shard
// count, shard telemetry, transport backend) into e — the one call every
// single-engine descriptor's Build makes after constructing its
// protocol, so new knobs reach all algorithms without touching each
// register.go. The transport attaches last: by then the protocol has
// finished configuring the engine, so a message-passing backend sees the
// final node set and bulk-actor capabilities.
func (p BuildParams) ApplyEngine(e *radio.Engine) {
	e.Hook = p.Hook
	if p.Shards > 1 {
		e.SetShards(p.Shards)
		e.ShardHook = p.ShardHook
	}
	if p.Transport != nil {
		p.Transport.Attach(e)
	}
	p.Engines.Add(e)
}

// Descriptor registers one algorithm for one task.
type Descriptor struct {
	// Task and Name identify the descriptor; (Task, Name) is unique.
	Task Task
	Name string
	// Aliases resolve to this descriptor in Lookup.
	Aliases []string
	// Label is the short display name experiment tables use ("BGI92").
	Label string
	// Summary is the one-line description shown by -list and the README
	// algorithm table.
	Summary string
	// BudgetDoc documents the default budget policy Run applies when the
	// caller passes budget <= 0 (L = ceil(log2 n) Decay levels).
	BudgetDoc string
	// Order sorts ByTask listings (ascending, ties by Name): baselines
	// before the paper's algorithms, matching the experiment-table
	// convention.
	Order int
	Caps  Caps
	// NewScratch builds the reusable seed-independent part of a trial's
	// precomputation for a (graph, diameter, tuning) cell; nil when the
	// algorithm has none. Scratches must be safe for concurrent use.
	NewScratch func(g *graph.Graph, d int, tuning any) any
	// ScratchKey, when non-empty, declares that NewScratch's default-
	// tuning result is interchangeable across every descriptor carrying
	// the same key: for a fixed (graph, diameter) the constructors
	// produce equivalent values, so executors (the campaign setup phase,
	// the facade's per-network memo) may build one scratch per
	// (topology, key) and share it. Descriptors whose scratch embeds
	// algorithm-specific tuning must use distinct keys. Only valid
	// alongside NewScratch; "" opts out of cross-descriptor sharing.
	ScratchKey string
	// TrialSources overrides the task-level trial source convention
	// (Task.TrialSources) for this descriptor — the seam that keeps the
	// task set genuinely open: a source-driven descriptor under a task
	// the built-in switch doesn't know supplies its own convention here
	// instead of editing this package. nil defers to the task default.
	TrialSources func() map[int]int64
	// Protect lists the nodes a trial's fault plan must never select —
	// nodes whose failure would make the completion target vacuous. nil
	// defaults to the source set for source-driven tasks (the campaign's
	// protect-the-broadcast-source convention) and to nothing otherwise.
	// Leader descriptors protect the would-be winner, derived
	// deterministically from the same (seed, tuning) the Build call will
	// use — tuning is threaded because it can change the candidate draw,
	// and protecting the wrong node makes a faulted election unwinnable.
	Protect func(g *graph.Graph, d int, seed uint64, sources map[int]int64, tuning any) []int
	// Build prepares one run.
	Build func(p BuildParams) (Runner, error)
}

// DefaultSources resolves the descriptor's trial source convention: its
// TrialSources hook when set, else the task-level default.
func (d *Descriptor) DefaultSources() map[int]int64 {
	if d.TrialSources != nil {
		return d.TrialSources()
	}
	return d.Task.TrialSources()
}

// ProtectedNodes resolves the descriptor's fault-protection set for one
// trial: Protect when set, else the source nodes in ascending order.
func (d *Descriptor) ProtectedNodes(g *graph.Graph, diam int, seed uint64, sources map[int]int64, tuning any) []int {
	if d.Protect != nil {
		return d.Protect(g, diam, seed, sources, tuning)
	}
	if len(sources) == 0 {
		return nil
	}
	out := make([]int, 0, len(sources))
	for v := range sources {
		out = append(out, v)
	}
	// Deterministic order: protection sets feed fault-site selection.
	sort.Ints(out)
	return out
}

// MaxIDNode returns the entry of a candidate map holding the highest ID
// (-1, -1 for an empty map) — the would-be winner every candidate-
// sampling election elects, shared by Protect hooks and Verify
// implementations so the winner derivation cannot drift between them.
// Candidate IDs are unique by construction (samplers redraw duplicate
// sets), which is what makes the result order-independent.
func MaxIDNode(cands map[int]int64) (node int, id int64) {
	node, id = -1, -1
	//lint:ordered max reduction over unique candidate IDs; ties are impossible
	for v, cid := range cands {
		if cid > id {
			node, id = v, cid
		}
	}
	return node, id
}
