package compete

import (
	"errors"
	"fmt"

	"radionet/internal/graph"
	"radionet/internal/protocol"
)

// This file registers the paper's algorithms with the protocol registry:
// the cd17 broadcast (Theorem 5.1), its Haeupler–Wajc'16 comparison mode
// hw16, and the cd17 leader election (Algorithm 6 / Theorem 5.2). Build
// returns the *Compete or *LeaderElection itself as the runner.

func init() {
	protocol.Register(protocol.Descriptor{
		Task:       protocol.Broadcast,
		Name:       "cd17",
		Label:      "CD17",
		Summary:    "the paper's Compete pipeline: random fine clusterings with Theorem 2.2 curtailment, O(D·log n/log D + polylog n) whp",
		BudgetDoc:  "8×Budget() (Theorem 4.1 with the implementation's constants)",
		Order:      40,
		Caps:       protocol.Caps{Faults: true},
		NewScratch: newScratch(false),
		Build: func(p protocol.BuildParams) (protocol.Runner, error) {
			return buildBroadcast(p, false)
		},
	})
	protocol.Register(protocol.Descriptor{
		Task:       protocol.Broadcast,
		Name:       "hw16",
		Label:      "HW16-mode",
		Summary:    "Haeupler–Wajc PODC'16 comparison mode: the same pipeline with their O(log log n)-longer intra-cluster schedules",
		BudgetDoc:  "8×Budget()",
		Order:      30,
		Caps:       protocol.Caps{Faults: true},
		NewScratch: newScratch(true),
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
		Caps:       protocol.Caps{Faults: true},
		NewScratch: newScratch(false),
		Protect:    protocol.ProtectMaxCandidate,
		Build:      buildLeader,
	})
}

// coerceTuning coerces a BuildParams.Tuning value for the three
// descriptors that take one; hw16 forces the CurtailLogLog comparison
// mode on top of whatever tuning the caller supplied.
func coerceTuning(tuning any, hw16 bool) (Config, error) {
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

// newScratch is the descriptors' NewScratch hook: the *Pre for the
// coerced tuning (nil for a tuning Build would reject).
func newScratch(hw16 bool) func(*graph.Graph, int, any) any {
	return func(g *graph.Graph, d int, tuning any) any {
		cfg, err := coerceTuning(tuning, hw16)
		if err != nil {
			return nil
		}
		return NewPre(g, d, cfg)
	}
}

// pre resolves the scratch for one build: the caller-provided *Pre when
// present, else a fresh one built for this run. New consumes identical
// randomness either way, so sharing changes no output bit. A *Pre built for another Config is rejected: the run
// would otherwise follow the scratch's config, not the tuning.
func pre(p protocol.BuildParams, cfg Config) (*Pre, error) {
	switch s := p.Scratch.(type) {
	case nil:
		return NewPre(p.G, p.D, cfg), nil
	case *Pre:
		if s.cfg != cfg.withDefaults() {
			return nil, errors.New("compete: scratch *Pre was built for a different Config")
		}
		return s, nil
	default:
		return nil, fmt.Errorf("compete: scratch must be *compete.Pre, got %T", p.Scratch)
	}
}

func buildBroadcast(p protocol.BuildParams, hw16 bool) (protocol.Runner, error) {
	cfg, err := coerceTuning(p.Tuning, hw16)
	if err != nil {
		return nil, err
	}
	pr, err := pre(p, cfg)
	if err != nil {
		return nil, err
	}
	c, err := New(pr, p.Seed, p.Sources, p.Faults)
	if err != nil {
		return nil, err
	}
	p.ApplyEngine(c.Engine)
	return c, nil
}

func buildLeader(p protocol.BuildParams) (protocol.Runner, error) {
	cfg, err := coerceTuning(p.Tuning, false)
	if err != nil {
		return nil, err
	}
	pr, err := pre(p, cfg)
	if err != nil {
		return nil, err
	}
	le, err := NewLeaderElection(pr, p.Seed, p.Faults)
	if err != nil {
		return nil, err
	}
	p.ApplyEngine(le.Engine)
	return le, nil
}

var (
	_ protocol.Budgeted     = (*Compete)(nil)
	_ protocol.LeaderRunner = (*LeaderElection)(nil)
)
