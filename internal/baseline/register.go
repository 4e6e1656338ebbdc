package baseline

import (
	"fmt"

	"radionet/internal/decay"
	"radionet/internal/protocol"
)

// This file registers the prior-work baselines: the truncated-Decay
// broadcast surrogate and the two leader-election reductions; Build
// returns the protocol type itself as the runner.

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
				return nil, fmt.Errorf("baseline: binary-search LE does not support fault plans (each bit's outcome is read from its source set, not from what survivors heard)")
			}
			le, err := NewBinarySearchLE(p.G, p.D, p.Seed)
			if err != nil {
				return nil, err
			}
			p.ApplyEngine(le.bc.Engine)
			return le, nil
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
		Protect:   protocol.ProtectMaxCandidate,
		Build: func(p protocol.BuildParams) (protocol.Runner, error) {
			if p.Tuning != nil {
				return nil, fmt.Errorf("baseline: max-broadcast LE takes no tuning, got %T", p.Tuning)
			}
			m, err := NewMaxBroadcastLE(p.G, p.D, p.Seed, p.Faults)
			if err != nil {
				return nil, err
			}
			p.ApplyEngine(m.bc.Engine)
			return m, nil
		},
	})
}
