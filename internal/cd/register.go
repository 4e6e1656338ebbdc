package cd

import (
	"fmt"

	"radionet/internal/protocol"
)

// This file registers the collision-detection-model beep-wave broadcast.
// It carries the CollisionDetection capability: it runs in the *stronger*
// model variant the paper discusses in Section 1.1, so same-model
// comparison tables (internal/exp F1) exclude it, but campaigns may cross
// it with the standard-model algorithms to regenerate the model
// separation.

func init() {
	protocol.Register(protocol.Descriptor{
		Task:      protocol.Broadcast,
		Name:      "cd-beep",
		Aliases:   []string{"cd"},
		Label:     "CD-beep",
		Summary:   "deterministic beep-wave broadcast under collision detection (Section 1.1 model separation): ecc(src) + 3·bits + O(1) rounds",
		BudgetDoc: "RoundsNeeded(D) + 16",
		Order:     90,
		Caps:      protocol.Caps{CollisionDetection: true},
		Build: func(p protocol.BuildParams) (protocol.Runner, error) {
			if p.Tuning != nil {
				return nil, fmt.Errorf("cd: the beep-wave broadcast takes no tuning, got %T", p.Tuning)
			}
			if p.Faults != nil {
				return nil, fmt.Errorf("cd: the beep-wave broadcast does not support fault plans")
			}
			if len(p.Sources) != 1 {
				return nil, fmt.Errorf("cd: beep-wave broadcast needs exactly one source, got %d", len(p.Sources))
			}
			var src int
			var value int64
			//lint:ordered the map has exactly one entry (checked above)
			for s, v := range p.Sources {
				src, value = s, v
			}
			b, err := NewBroadcast(p.G, src, value)
			if err != nil {
				return nil, err
			}
			p.ApplyEngine(b.Engine)
			return beepRunner{b: b, d: p.D}, nil
		},
	})
}

type beepRunner struct {
	b *Broadcast
	d int
}

// DefaultBudget implements protocol.Budgeted.
func (r beepRunner) DefaultBudget() int64 { return r.b.RoundsNeeded(r.d) + 16 }

func (r beepRunner) Run(budget int64) protocol.Result {
	if budget <= 0 {
		budget = r.b.RoundsNeeded(r.d) + 16
	}
	rounds, done := r.b.Run(budget)
	return protocol.Result{
		Rounds: rounds,
		Tx:     r.b.Engine.Metrics.Transmissions,
		Done:   done,
	}
}
