package compete

import (
	"errors"
	"fmt"

	"radionet/perfbench/frozen/graph"
	"radionet/perfbench/frozen/protocol"
)

// This file registers the paper's algorithms with the protocol registry:
// the cd17 broadcast (Theorem 5.1), its Haeupler–Wajc'16 comparison mode
// hw16, and the cd17 leader election (Algorithm 6 / Theorem 5.2). The
// runners reproduce the historical campaign semantics bit for bit: same
// constructors, same randomness, same 8×Budget() default budget.

func init() {
	protocol.Register(protocol.Descriptor{
		Task:      protocol.Broadcast,
		Name:      "cd17",
		Label:     "CD17",
		Summary:   "the paper's Compete pipeline: random fine clusterings with Theorem 2.2 curtailment, O(D·log n/log D + polylog n) whp",
		BudgetDoc: "8×Budget() (Theorem 4.1 with the implementation's constants)",
		Order:     40,
		Caps:      protocol.Caps{Faults: true, Scratch: true, Bulk: true, Transport: true},
		// Shared with leader:cd17 — both default-tuning scratches are
		// NewPre(g, d, Config{}), so one build serves both descriptors.
		ScratchKey: "compete/pre",
		NewScratch: func(g *graph.Graph, d int, tuning any) any {
			cfg, err := broadcastTuning(tuning, false)
			if err != nil {
				return nil
			}
			return NewPre(g, d, cfg)
		},
		Build: func(p protocol.BuildParams) (protocol.Runner, error) {
			return buildBroadcast(p, false)
		},
	})
	protocol.Register(protocol.Descriptor{
		Task:      protocol.Broadcast,
		Name:      "hw16",
		Label:     "HW16-mode",
		Summary:   "Haeupler–Wajc PODC'16 comparison mode: the same pipeline with their O(log log n)-longer intra-cluster schedules",
		BudgetDoc: "8×Budget()",
		Order:     30,
		Caps:      protocol.Caps{Faults: true, Scratch: true, Bulk: true, Transport: true},
		// Distinct from cd17's key: CurtailLogLog changes the schedule
		// lengths baked into the precomputation.
		ScratchKey: "compete/pre-hw16",
		NewScratch: func(g *graph.Graph, d int, tuning any) any {
			cfg, err := broadcastTuning(tuning, true)
			if err != nil {
				return nil
			}
			return NewPre(g, d, cfg)
		},
		Build: func(p protocol.BuildParams) (protocol.Runner, error) {
			return buildBroadcast(p, true)
		},
	})
	protocol.Register(protocol.Descriptor{
		Task:       protocol.Leader,
		Name:       "cd17",
		Label:      "CD17-LE",
		Summary:    "Algorithm 6 / Theorem 5.2: Θ(log n) random candidates compete, O(D·log n/log D + polylog n) whp — first LE asymptotically equal to broadcast",
		BudgetDoc:  "8×Budget()",
		Order:      40,
		Caps:       protocol.Caps{Faults: true, Scratch: true, Bulk: true, Transport: true},
		ScratchKey: "compete/pre", // see broadcast:cd17
		NewScratch: func(g *graph.Graph, d int, tuning any) any {
			cfg, err := leaderTuning(tuning)
			if err != nil {
				return nil
			}
			return NewPre(g, d, cfg.Config)
		},
		Protect: func(g *graph.Graph, d int, seed uint64, _ map[int]int64, tuning any) []int {
			// Fault plans must not crash the would-be winner (its death
			// makes the completion target vacuous). The sample is the
			// pure (n, cfg, seed) function Build performs — with the
			// trial's tuning threaded through, so the protected node is
			// exactly the node that will win the election.
			cfg, err := leaderTuning(tuning)
			if err != nil {
				return nil
			}
			cands, err := SampleCandidates(g.N(), cfg, seed)
			if err != nil {
				return nil
			}
			w, _ := protocol.MaxIDNode(cands)
			return []int{w}
		},
		Build: buildLeader,
	})
}

// broadcastTuning coerces a BuildParams.Tuning value for the broadcast
// descriptors; hw16 forces the CurtailLogLog comparison mode on top of
// whatever tuning the caller supplied.
func broadcastTuning(tuning any, hw16 bool) (Config, error) {
	cfg := Config{}
	switch t := tuning.(type) {
	case nil:
	case Config:
		cfg = t
	default:
		return Config{}, fmt.Errorf("compete: tuning must be compete.Config, got %T", tuning)
	}
	if hw16 {
		cfg.CurtailLogLog = true
	}
	return cfg, nil
}

func leaderTuning(tuning any) (LeaderConfig, error) {
	switch t := tuning.(type) {
	case nil:
		return LeaderConfig{}, nil
	case LeaderConfig:
		return t, nil
	case Config:
		return LeaderConfig{Config: t}, nil
	default:
		return LeaderConfig{}, fmt.Errorf("compete: tuning must be compete.Config or compete.LeaderConfig, got %T", tuning)
	}
}

// pre resolves the scratch for one build: the caller-provided *Pre when
// present (the campaign's per-config amortization), else a fresh one.
// NewWithPre consumes identical randomness either way, so sharing changes
// no output bit.
func pre(p protocol.BuildParams, cfg Config) (*Pre, error) {
	switch s := p.Scratch.(type) {
	case nil:
		return NewPre(p.G, p.D, cfg), nil
	case *Pre:
		return s, nil
	default:
		return nil, fmt.Errorf("compete: scratch must be *compete.Pre, got %T", p.Scratch)
	}
}

type competeRunner struct {
	c *Compete
}

// DefaultBudget implements protocol.Budgeted.
func (r competeRunner) DefaultBudget() int64 { return 8 * r.c.Budget() }

func (r competeRunner) Run(budget int64) protocol.Result {
	if budget <= 0 {
		budget = 8 * r.c.Budget()
	}
	rounds, done := r.c.Run(budget)
	return protocol.Result{
		Rounds:      rounds,
		Tx:          r.c.Engine.Metrics.Transmissions,
		Done:        done,
		Reached:     r.c.Reached(),
		ReachTarget: r.c.ReachTarget(),
		Precompute:  r.c.PrecomputeRounds,
	}
}

func buildBroadcast(p protocol.BuildParams, hw16 bool) (protocol.Runner, error) {
	cfg, err := broadcastTuning(p.Tuning, hw16)
	if err != nil {
		return nil, err
	}
	pr, err := pre(p, cfg)
	if err != nil {
		return nil, err
	}
	if len(p.Sources) == 0 {
		return nil, errors.New("compete: empty source set")
	}
	// A transport's round executor polls nodes individually, which the
	// bulk shims cannot serve — build the reference machines instead
	// (bit-identical output, pinned by the equivalence tests).
	newCompete := NewWithPreFaults
	if p.Transport != nil {
		newCompete = NewWithPreFaultsRef
	}
	c, err := newCompete(pr, p.Seed, p.Sources, p.Faults)
	if err != nil {
		return nil, err
	}
	p.ApplyEngine(c.Engine)
	return competeRunner{c: c}, nil
}

type leaderRunner struct {
	le *LeaderElection
}

// DefaultBudget implements protocol.Budgeted.
func (r leaderRunner) DefaultBudget() int64 {
	return competeRunner{c: r.le.Compete}.DefaultBudget()
}

func (r leaderRunner) Run(budget int64) protocol.Result {
	res := competeRunner{c: r.le.Compete}.Run(budget)
	res.Verify = r.le.Verify
	return res
}

func (r leaderRunner) Leader() int               { return r.le.Leader() }
func (r leaderRunner) LeaderID() int64           { return r.le.TrueMax() }
func (r leaderRunner) Candidates() map[int]int64 { return r.le.Candidates }

func buildLeader(p protocol.BuildParams) (protocol.Runner, error) {
	cfg, err := leaderTuning(p.Tuning)
	if err != nil {
		return nil, err
	}
	pr, err := pre(p, cfg.Config)
	if err != nil {
		return nil, err
	}
	newLE := NewLeaderElectionPreFaults
	if p.Transport != nil {
		newLE = NewLeaderElectionPreFaultsRef // see buildBroadcast
	}
	le, err := newLE(pr, cfg, p.Seed, p.Faults)
	if err != nil {
		return nil, err
	}
	p.ApplyEngine(le.Engine)
	return leaderRunner{le: le}, nil
}
