package ghle

import (
	"fmt"

	"radionet/internal/protocol"
)

// Registration is this package's only integration point: the campaign
// engine, the radionet facade and both CLIs pick the algorithm up from
// the protocol registry — no dispatch code anywhere names it.

func init() {
	protocol.Register(protocol.Descriptor{
		Task:      protocol.Leader,
		Name:      "gh13",
		Aliases:   []string{"ghaffari-haeupler"},
		Label:     "GH13-scoped-LE",
		Summary:   "scoped variant of the Ghaffari–Haeupler SODA'13 elimination tournament: Algorithm-6 candidates, Θ(log log n) geometric Decay knockout broadcasts + one full agreement broadcast, < 2·T_BC total",
		BudgetDoc: "< 2T with T = 6·(D+L)·L (explicit budgets: T = budget/2)",
		Order:     30,
		// No Protect hook: the descriptor is fault-incapable (phase outcomes
		// and the winner are read from the candidate set), so fault
		// planning never reaches it. When it lands, Protect is
		// protocol.ProtectMaxCandidate, as for the other elections.
		Caps: protocol.Caps{},
		Build: func(p protocol.BuildParams) (protocol.Runner, error) {
			if p.Tuning != nil {
				return nil, fmt.Errorf("ghle: gh13 takes no tuning, got %T", p.Tuning)
			}
			if p.Faults != nil {
				return nil, fmt.Errorf("ghle: gh13 does not support fault plans (each phase's outcome is read from the candidate set, not from what survivors heard)")
			}
			le, err := New(p.G, p.D, p.Seed)
			if err != nil {
				return nil, err
			}
			p.ApplyEngine(le.bc.Engine)
			return le, nil
		},
	})
}
