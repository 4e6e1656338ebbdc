package decay

import (
	"errors"
	"fmt"
	"sort"

	"radionet/internal/protocol"
)

// This file registers the classical BGI Decay broadcast.

func init() {
	protocol.Register(protocol.Descriptor{
		Task:      protocol.Broadcast,
		Name:      "bgi",
		Aliases:   []string{"decay"},
		Label:     "BGI92",
		Summary:   "classical Decay broadcast of Bar-Yehuda–Goldreich–Itai, O((D+log n)·log n); no spontaneous transmissions",
		BudgetDoc: "20·(D+L)·L",
		Order:     10,
		Build: func(p protocol.BuildParams) (protocol.Runner, error) {
			return BuildRunner(p, Config{})
		},
	})
}

// BuildRunner builds a Decay-family Broadcast from BuildParams and a
// base config (internal/baseline reuses it for the truncated-Decay
// surrogate, which is the same protocol at a different phase length).
// The Decay descriptors take no tuning, and a non-nil value is rejected
// loudly — silently ignoring a caller's intended configuration is the bug
// class the registry exists to kill.
func BuildRunner(p protocol.BuildParams, cfg Config) (protocol.Runner, error) {
	if p.Tuning != nil {
		return nil, fmt.Errorf("decay: the Decay-family descriptors take no tuning, got %T", p.Tuning)
	}
	if len(p.Sources) == 0 {
		return nil, errors.New("decay: empty source set")
	}
	// Validate in sorted order so the reported source — and with it the
	// error string — does not depend on map iteration order. NewBroadcast
	// indexes its nodes by source id unchecked.
	srcIDs := make([]int, 0, len(p.Sources))
	for s := range p.Sources {
		srcIDs = append(srcIDs, s)
	}
	sort.Ints(srcIDs)
	for _, s := range srcIDs {
		if s < 0 || s >= p.G.N() {
			return nil, fmt.Errorf("decay: source %d out of range", s)
		}
		if v := p.Sources[s]; v < 0 {
			return nil, fmt.Errorf("decay: source %d has negative message %d", s, v)
		}
	}
	b := NewBroadcast(p.G, p.D, cfg, p.Seed, p.Sources)
	p.ApplyEngine(b.Engine)
	return b, nil
}
