package decay

import (
	"errors"
	"fmt"
	"sort"

	"radionet/perfbench/frozen/protocol"
)

// This file registers the classical BGI Decay broadcast. The runner
// reproduces the historical campaign semantics bit for bit: same
// constructor, same randomness, same 20·(D+L)·L default budget.

func init() {
	protocol.Register(protocol.Descriptor{
		Task:      protocol.Broadcast,
		Name:      "bgi",
		Aliases:   []string{"decay"},
		Label:     "BGI92",
		Summary:   "classical Decay broadcast of Bar-Yehuda–Goldreich–Itai, O((D+log n)·log n); no spontaneous transmissions",
		BudgetDoc: "20·(D+L)·L",
		Order:     10,
		Caps:      protocol.Caps{Faults: true, Bulk: true, Transport: true},
		Build: func(p protocol.BuildParams) (protocol.Runner, error) {
			return BuildRunner(p, Config{})
		},
	})
}

// WhpBudget is the whp-sufficient Decay broadcast budget 20·(D+L)·L with
// L = ceil(log2 n) levels — the default every Decay-family descriptor
// applies when the caller passes budget <= 0, mirroring the radionet
// facade and the historical campaign budget math.
func WhpBudget(n, d int) int64 {
	l := int64(Levels(n))
	return 20 * (int64(d) + l) * l
}

// Runner adapts a Broadcast to the protocol.Runner contract.
type Runner struct {
	B *Broadcast
	// Default is the budget applied when Run gets budget <= 0.
	Default int64
}

// DefaultBudget implements protocol.Budgeted.
func (r Runner) DefaultBudget() int64 { return r.Default }

// Run implements protocol.Runner.
func (r Runner) Run(budget int64) protocol.Result {
	if budget <= 0 {
		budget = r.Default
	}
	rounds, done := r.B.Run(budget)
	return protocol.Result{
		Rounds:      rounds,
		Tx:          r.B.Engine.Metrics.Transmissions,
		Done:        done,
		Reached:     r.B.Reached(),
		ReachTarget: r.B.ReachTarget(),
	}
}

// BuildRunner builds a Decay-family protocol runner from BuildParams and a
// base config (internal/baseline reuses it for the truncated-Decay
// surrogate, which is the same protocol at a different phase length).
// The fault plan rides in the Config, exactly as the campaign and facade
// have always installed it. The Decay descriptors take no tuning, and a
// non-nil value is rejected loudly — silently ignoring a caller's
// intended configuration is the bug class the registry exists to kill.
func BuildRunner(p protocol.BuildParams, cfg Config) (protocol.Runner, error) {
	if p.Tuning != nil {
		return nil, fmt.Errorf("decay: the Decay-family descriptors take no tuning, got %T", p.Tuning)
	}
	if len(p.Sources) == 0 {
		return nil, errors.New("decay: empty source set")
	}
	// Validate in sorted order so the reported source — and with it the
	// error string — does not depend on map iteration order.
	srcIDs := make([]int, 0, len(p.Sources))
	for s := range p.Sources {
		srcIDs = append(srcIDs, s)
	}
	sort.Ints(srcIDs)
	for _, s := range srcIDs {
		if v := p.Sources[s]; v < 0 {
			return nil, fmt.Errorf("decay: source %d has negative message %d", s, v)
		}
	}
	cfg.Faults = p.Faults
	b := NewBroadcast(p.G, cfg, p.Seed, p.Sources)
	p.ApplyEngine(b.Engine)
	return Runner{B: b, Default: WhpBudget(p.G.N(), p.D)}, nil
}
