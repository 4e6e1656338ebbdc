package cluster

import (
	"fmt"
	"math"

	"radionet/perfbench/frozen/protocol"
)

// This file registers the distributed Miller–Peng–Xu Partition(β)
// protocol under the "partition" task: completion means every node has
// adopted a cluster (wave adoption or self-candidacy). The centralized
// Partition stays a library subroutine — it has no rounds to run.

func init() {
	protocol.Register(protocol.Descriptor{
		Task:      protocol.Partition,
		Name:      "mpx",
		Aliases:   []string{"partition", "miller-peng-xu"},
		Label:     "MPX-Partition",
		Summary:   "distributed Partition(β) of Lemma 2.1 (β defaults to D^-0.5, the pipeline's coarse clustering); completion = every node cluster-assigned",
		BudgetDoc: "MaxPhases·PhaseLen (capped exponential shifts)",
		Order:     10,
		Caps:      protocol.Caps{Transport: true},
		Build: func(p protocol.BuildParams) (protocol.Runner, error) {
			cfg := DistConfig{}
			switch t := p.Tuning.(type) {
			case nil:
			case DistConfig:
				cfg = t
			default:
				return nil, fmt.Errorf("cluster: tuning must be cluster.DistConfig, got %T", p.Tuning)
			}
			if p.Faults != nil {
				return nil, fmt.Errorf("cluster: distributed partition does not support fault plans")
			}
			if cfg.Beta <= 0 {
				d := p.D
				if d < 1 {
					d = 1
				}
				cfg.Beta = math.Pow(float64(d), -0.5)
			}
			dp := NewDistributed(p.G, cfg, p.Seed)
			p.ApplyEngine(dp.Engine)
			return partitionRunner{d: dp}, nil
		},
	})
}

type partitionRunner struct {
	d *Distributed
}

// DefaultBudget implements protocol.Budgeted.
func (r partitionRunner) DefaultBudget() int64 { return r.d.MaxPhases * r.d.PhaseLen }

func (r partitionRunner) Run(budget int64) protocol.Result {
	def := r.d.MaxPhases * r.d.PhaseLen
	if budget <= 0 || budget > def {
		budget = def
	}
	rounds, done := r.d.Engine.RunUntil(budget, &r.d.prog)
	return protocol.Result{
		Rounds:      rounds,
		Tx:          r.d.Engine.Metrics.Transmissions,
		Done:        done,
		Reached:     int(r.d.prog.Count()),
		ReachTarget: int(r.d.prog.Target()),
	}
}
