// Package protocol is the pluggable-algorithm seam between the algorithm
// library and everything that runs algorithms: the campaign engine
// (internal/campaign), the radionet facade, the CLIs (cmd/radiosim,
// cmd/campaign) and the experiment harness (internal/exp).
//
// An algorithm is a Descriptor — name, aliases, task, capabilities, a
// default budget policy and a Build function returning the algorithm's
// own protocol type as a Runner — registered once by its own package in
// an init-time Register call, and every layer resolves algorithms
// through Lookup/ByTask. Adding an algorithm end-to-end (campaign
// matrices, the facade, both CLIs, the conformance suite) is one new
// package with a register.go plus one blank import in
// internal/protocol/all; no dispatch code changes anywhere (internal/ghle
// is the proof). Running one is (*Descriptor).Execute, the one Build →
// Run → Verify routine that the campaign trial path and the facade
// share.
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
	"errors"
	"fmt"
	"math"
	"sort"

	"radionet/internal/graph"
	"radionet/internal/radio"
	"radionet/internal/rng"
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
	// Partition computes a Miller–Peng–Xu cluster assignment distributedly.
	Partition Task = "partition"
)

// TrialSources is the built-in campaign trial convention for seeding a
// task's source set: source-driven tasks inject message value 9 at node
// 0 (the historical campaign convention, which byte-identical output
// depends on); self-seeding tasks (leader election samples its own
// candidates, the partition protocol involves every node) get nil.
func (t Task) TrialSources() map[int]int64 {
	switch t {
	case Broadcast:
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
}

// Result is the uniform outcome of one protocol run.
type Result struct {
	// Rounds is the number of rounds executed (budget-capped on failure).
	Rounds int64
	// Tx is the total engine transmission count of the run.
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
// Budget exception: binary-search LE, the one composite runner that
// splits an explicit budget over fixed units (one broadcast per ID bit),
// floors each unit's share to one round, so a budget smaller than the
// unit count may be overshot by up to that count; its descriptor
// documents the floor in BudgetDoc. Above the floor, Run(budget)
// executes at most budget rounds.
type Runner interface {
	Run(budget int64) Result
}

// Budgeted is an optional Runner extension for telemetry: DefaultBudget
// reports the round budget Run applies when the caller passes budget <= 0
// (the descriptor's documented whp-sufficient policy, resolved for this
// run's topology). The trial runner uses it to compute budget-fraction-
// used metrics; runners without it simply skip that histogram.
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
	// Tuning is optional algorithm configuration; nil selects defaults.
	// Only the Compete descriptors (broadcast cd17 and hw16, leader cd17)
	// take one, a compete.Config; they reject other types, and every
	// other descriptor rejects any non-nil value.
	Tuning any
	// Hook, if set, observes every engine round the runner simulates.
	Hook radio.RoundHook
	// Shards, if > 1, enables intra-round sharding on the runner's engine
	// (see radio.Engine.SetShards); output is bit-exact at any value.
	// 0 and 1 both mean unsharded.
	Shards int
	// ShardHook, if set alongside Shards > 1, receives per-shard busy-time
	// telemetry (see radio.ShardHook).
	ShardHook radio.ShardHook
	// Engines, if non-nil, collects every engine the runner constructs
	// (ApplyEngine registers automatically) so the caller can release
	// their resident shard workers deterministically when the trial ends
	// (radio.EngineSet.Close). Execute closes it, using a fresh set when
	// nil; a direct Build with nil defers teardown to the GC cleanup.
	Engines *radio.EngineSet
}

// ApplyEngine wires the params' engine-level knobs (round hook, shard
// count, shard telemetry) into e — the one call every descriptor's
// Build makes after constructing its protocol, so new knobs
// reach all algorithms without touching each register.go.
func (p BuildParams) ApplyEngine(e *radio.Engine) {
	e.Hook = p.Hook
	if p.Shards > 1 {
		e.SetShards(p.Shards)
		e.ShardHook = p.ShardHook
	}
	p.Engines.Add(e)
}

// Outcome is one executed run: the runner's Result with Done gated on
// the postcondition check, plus what callers read beyond the Result.
type Outcome struct {
	Result
	// VerifyErr is Verify's error for a run that finished within budget
	// but failed its postcondition; Done is false then.
	VerifyErr error
	// Budget is the effective round budget: the explicit budget when > 0,
	// else the runner's DefaultBudget (Budgeted), else 0.
	Budget int64
	// Runner is the executed runner, for LeaderRunner queries.
	Runner Runner
}

// Execute is the one Build → Run → Verify routine behind every caller
// that runs a descriptor (the campaign trial, the radionet facade): it
// builds the runner from p, runs it with budget, clears Done when Verify
// fails, and closes p.Engines (a fresh set when nil) before returning,
// so sharded engines release their resident workers deterministically.
// A Build error is returned as is.
func (d *Descriptor) Execute(p BuildParams, budget int64) (Outcome, error) {
	if p.Engines == nil {
		p.Engines = new(radio.EngineSet)
	}
	defer p.Engines.Close()
	r, err := d.Build(p)
	if err != nil {
		return Outcome{}, err
	}
	out := Outcome{Budget: max(budget, 0), Runner: r}
	if b, ok := r.(Budgeted); ok && budget <= 0 {
		out.Budget = b.DefaultBudget()
	}
	out.Result = r.Run(budget)
	if out.Done && out.Verify != nil {
		if out.VerifyErr = out.Verify(); out.VerifyErr != nil {
			out.Done = false
		}
	}
	return out, nil
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
	// algorithm has none. Every executor leaves BuildParams.Scratch nil,
	// so each run's Build builds its own; a caller that shares one
	// across runs must see the same output bits. Scratches must be safe
	// for concurrent use.
	NewScratch func(g *graph.Graph, d int, tuning any) any
	// Protect lists the nodes a trial's fault plan must never select —
	// nodes whose failure would make the completion target vacuous — for
	// an n-node network and a trial seed. nil defaults to the source set
	// for source-driven tasks (the campaign's protect-the-broadcast-source
	// convention) and to nothing otherwise. Leader descriptors protect the
	// would-be winner: their candidate draw is a pure function of (n,
	// seed), so the hook derives exactly the node Build will elect.
	Protect func(n int, seed uint64) []int
	// Build prepares one run.
	Build func(p BuildParams) (Runner, error)
}

// DefaultSources resolves the descriptor's trial source convention, its
// task's (Task.TrialSources).
func (d *Descriptor) DefaultSources() map[int]int64 {
	return d.Task.TrialSources()
}

// ProtectedNodes resolves the descriptor's fault-protection set for one
// trial on an n-node network: Protect when set, else the source nodes in
// ascending order.
func (d *Descriptor) ProtectedNodes(n int, seed uint64, sources map[int]int64) []int {
	if d.Protect != nil {
		return d.Protect(n, seed)
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

// The Algorithm-6 candidate sampling constants.
const (
	// candidateC scales the candidacy probability candidateC·ln(n+2)/n
	// [paper Θ(log n/n); 2].
	candidateC = 2
	// IDBits is the candidate ID length [Θ(log n); 40].
	IDBits = 40
)

// SampleCandidates draws the Algorithm-6 candidate set for an n-node
// network from seed, for every candidate-sampling election (cd17's,
// binary-search, max-broadcast and gh13): each node becomes a candidate
// with probability candidateC·ln(n+2)/n and draws a random IDBits-bit ID;
// empty or duplicate samples (probability O(n^-c), events the paper
// conditions away) are redrawn with a salted seed. The draw is a pure
// function of (n, seed), so callers that need the candidate set before
// construction (ProtectMaxCandidate) see exactly the election's
// candidates.
func SampleCandidates(n int, seed uint64) (map[int]int64, error) {
	if n <= 0 {
		return nil, errors.New("protocol: empty graph")
	}
	p := candidateC * math.Log(float64(n)+2) / float64(n)
	if p > 1 {
		p = 1
	}
	idSpace := int64(1) << IDBits
	for salt := uint64(0); salt <= 1000; salt++ {
		r := rng.New(seed).Fork(7000 + salt)
		candidates := make(map[int]int64)
		used := make(map[int64]bool)
		dup := false
		for v := 0; v < n; v++ {
			cr := r.Fork(uint64(v))
			if !cr.Bernoulli(p) {
				continue
			}
			id := cr.Int63n(idSpace)
			if used[id] {
				dup = true
				break
			}
			used[id] = true
			candidates[v] = id
		}
		if !dup && len(candidates) > 0 {
			return candidates, nil
		}
	}
	return nil, fmt.Errorf("protocol: could not sample candidates for n=%d", n)
}

// ProtectMaxCandidate is the Protect hook of the candidate-sampling
// elections: the would-be winner, derived from the trial seed exactly as
// Build samples it, so fault plans never crash the one node whose death
// would make the election unwinnable.
func ProtectMaxCandidate(n int, seed uint64) []int {
	cands, err := SampleCandidates(n, seed)
	if err != nil {
		return nil
	}
	w, _ := MaxIDNode(cands)
	return []int{w}
}
