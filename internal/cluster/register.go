package cluster

import (
	"fmt"
	"math"

	"radionet/internal/protocol"
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
		Caps:      protocol.Caps{},
		Build: func(p protocol.BuildParams) (protocol.Runner, error) {
			if p.Tuning != nil {
				return nil, fmt.Errorf("cluster: mpx takes no tuning, got %T", p.Tuning)
			}
			if p.Faults != nil {
				return nil, fmt.Errorf("cluster: distributed partition does not support fault plans")
			}
			dp := NewDistributed(p.G, math.Pow(float64(max(p.D, 1)), -0.5), p.Seed)
			p.ApplyEngine(dp.Engine)
			return dp, nil
		},
	})
}
