package baseline

import (
	"fmt"

	"radionet/internal/decay"
	"radionet/internal/protocol"
)

// This file registers the prior-work baselines: the truncated-Decay
// broadcast surrogate and the two leader-election reductions. The runners
// reproduce the historical campaign semantics bit for bit, with one
// deliberate fix: both leader baselines now surface their engine
// transmission counts through protocol.Result.Tx (they used to report 0).

func init() {
	protocol.Register(protocol.Descriptor{
		Task:      protocol.Broadcast,
		Name:      "truncated-decay",
		Aliases:   []string{"trunc"},
		Label:     "CR/KP-trunc",
		Summary:   "Czumaj–Rytter/Kowalski–Pelc-flavored surrogate: Decay phases truncated to the log(n/D) contention scale, O(D·log(n/D) + log²n)-style",
		BudgetDoc: "20·(D+L)·L",
		Order:     20,
		Caps:      protocol.Caps{Faults: true},
		Build: func(p protocol.BuildParams) (protocol.Runner, error) {
			return decay.BuildRunner(p, decay.Config{Levels: TruncatedDecayLevels(p.G.N(), p.D)})
		},
	})
	protocol.Register(protocol.Descriptor{
		Task:      protocol.Leader,
		Name:      "binary-search",
		Aliases:   []string{"bsearch"},
		Label:     "BinarySearch-LE",
		Summary:   "classical [2] reduction: network-wide binary search over the ID space, one budgeted broadcast per ID bit, O(T_BC·log n)",
		BudgetDoc: "per-bit T_BC = 3·(D+L)·L over 40 ID bits (explicit budgets split evenly per bit)",
		Order:     10,
		Caps:      protocol.Caps{},
		Build: func(p protocol.BuildParams) (protocol.Runner, error) {
			if p.Tuning != nil {
				return nil, fmt.Errorf("baseline: binary-search LE takes no tuning, got %T", p.Tuning)
			}
			if p.Faults != nil {
				return nil, fmt.Errorf("baseline: binary-search LE does not support fault plans (each of its per-bit broadcasts restarts the round clock)")
			}
			le, err := NewBinarySearchLE(p.G, p.D, p.Seed)
			if err != nil {
				return nil, err
			}
			return &binarySearchRunner{le: le}, nil
		},
	})
	protocol.Register(protocol.Descriptor{
		Task:      protocol.Leader,
		Name:      "max-broadcast",
		Aliases:   []string{"maxbcast"},
		Label:     "MaxBcast-LE[8]",
		Summary:   "expected-O(T_BC) election in the style of Czumaj–Davies'19 [8]: one multi-source max-propagating Decay broadcast of candidate IDs",
		BudgetDoc: "6·(D+L)·L",
		Order:     20,
		Caps:      protocol.Caps{Faults: true},
		Protect:   protectMaxCandidate,
		Build: func(p protocol.BuildParams) (protocol.Runner, error) {
			if p.Tuning != nil {
				return nil, fmt.Errorf("baseline: max-broadcast LE takes no tuning, got %T", p.Tuning)
			}
			m, err := NewMaxBroadcastLE(p.G, p.D, p.Seed, p.Faults)
			if err != nil {
				return nil, err
			}
			p.ApplyEngine(m.bc.Engine)
			return &maxBroadcastRunner{m: m}, nil
		},
	})
}

// protectMaxCandidate derives the would-be winner of a candidate-sampling
// election from the trial seed (SampleCandidates is a pure function of
// (n, seed)), so fault plans never crash the one node whose death would
// make the election unwinnable.
func protectMaxCandidate(n int, seed uint64) []int {
	cands, err := SampleCandidates(n, seed)
	if err != nil {
		return nil
	}
	w, _ := protocol.MaxIDNode(cands)
	return []int{w}
}

// binarySearchRunner adapts BinarySearchLE. The whole-run budget maps to
// the per-iteration broadcast budget tbc = budget/idBits, floored to one
// round per bit — the exact mapping the campaign used to hardcode.
type binarySearchRunner struct {
	le  *BinarySearchLE
	res LEResult
}

// DefaultBudget implements protocol.Budgeted: the whp per-bit broadcast
// budget times the ID-bit count (what Run(0) executes at most).
func (r *binarySearchRunner) DefaultBudget() int64 {
	return r.le.tbc * idBits
}

func (r *binarySearchRunner) Run(budget int64) protocol.Result {
	if budget > 0 {
		tbc := budget / idBits
		if tbc < 1 {
			tbc = 1
		}
		r.le.tbc = tbc
	}
	r.res = r.le.Run()
	return protocol.Result{
		Rounds: r.res.Rounds,
		Tx:     r.res.Tx,
		Done:   r.res.Done,
		Verify: r.verify,
	}
}

// verify checks that the binary search converged on the true maximum
// candidate ID and that the elected node owns it.
func (r *binarySearchRunner) verify() error {
	if !r.res.Done {
		return fmt.Errorf("baseline: election not complete")
	}
	_, max := protocol.MaxIDNode(r.le.candidates)
	if r.res.LeaderID != max {
		return fmt.Errorf("baseline: binary search converged on %d, true max is %d", r.res.LeaderID, max)
	}
	if r.le.candidates[r.res.Leader] != max {
		return fmt.Errorf("baseline: elected node %d does not own the winning ID", r.res.Leader)
	}
	return nil
}

func (r *binarySearchRunner) Leader() int {
	if !r.res.Done {
		return -1
	}
	return r.res.Leader
}
func (r *binarySearchRunner) LeaderID() int64           { return r.res.LeaderID }
func (r *binarySearchRunner) Candidates() map[int]int64 { return r.le.Candidates() }

// maxBroadcastRunner adapts MaxBroadcastLE. An explicit Run budget
// overrides the constructor's default, matching the budget the campaign
// used to pass into the constructor directly.
type maxBroadcastRunner struct {
	m   *MaxBroadcastLE
	res LEResult
}

// DefaultBudget implements protocol.Budgeted.
func (r *maxBroadcastRunner) DefaultBudget() int64 { return r.m.budget }

func (r *maxBroadcastRunner) Run(budget int64) protocol.Result {
	if budget > 0 {
		r.m.budget = budget
	}
	r.res = r.m.Run()
	return protocol.Result{
		Rounds:      r.res.Rounds,
		Tx:          r.res.Tx,
		Done:        r.res.Done,
		Reached:     r.m.bc.Reached(),
		ReachTarget: r.m.bc.ReachTarget(),
		Verify:      r.verify,
	}
}

func (r *maxBroadcastRunner) verify() error {
	if !r.res.Done {
		return fmt.Errorf("baseline: election not complete")
	}
	return r.m.Verify()
}

func (r *maxBroadcastRunner) Leader() int {
	if !r.res.Done {
		return -1
	}
	return r.res.Leader
}
func (r *maxBroadcastRunner) LeaderID() int64           { return r.res.LeaderID }
func (r *maxBroadcastRunner) Candidates() map[int]int64 { return r.m.Candidates() }
