package campaign

import (
	"fmt"
	"sort"
	"strings"
)

// Presets are named ready-made matrices, so common campaigns (and the
// large-n scales the hot-path work targets) don't need hand-assembled flag
// soup. The large-n presets deliberately stick to the Decay-based
// algorithms: at n = 10^5..10^6 the clustering pipeline's precomputation
// oracle dominates wall time, while the oblivious baselines exercise
// exactly the per-round simulation hot path (engine + incremental
// termination) the presets exist to measure.
var presets = map[string]Matrix{
	// smoke: seconds-scale sanity sweep over every algorithm family.
	"smoke": {
		Topologies: []string{"grid:8x8", "path:64", "cliquepath:8x4", "randtree:200"},
		Algorithms: []AlgoSpec{
			{Task: Broadcast, Algo: "cd17"},
			{Task: Broadcast, Algo: "bgi"},
			{Task: Broadcast, Algo: "truncated-decay"},
			{Task: Leader, Algo: "max-broadcast"},
		},
		Seeds:      3,
		MasterSeed: 1,
	},
	// large-n-broadcast: the sparse 10^5-node broadcast workloads behind
	// the incremental-termination benchmarks (DESIGN.md §5).
	"large-n-broadcast": {
		Topologies: []string{"randtree:100000", "gnp:100000:0.00005"},
		Algorithms: []AlgoSpec{
			{Task: Broadcast, Algo: "bgi"},
			{Task: Broadcast, Algo: "truncated-decay"},
		},
		Seeds:      3,
		MasterSeed: 1,
	},
	// large-n-leader: leader election at the same scale via the
	// single-broadcast baseline (binary-search runs 40 budgeted
	// broadcasts per trial and is left to explicit flags).
	"large-n-leader": {
		Topologies: []string{"randtree:100000", "gnp:100000:0.00005"},
		Algorithms: []AlgoSpec{
			{Task: Leader, Algo: "max-broadcast"},
		},
		Seeds:      3,
		MasterSeed: 1,
	},
	// huge-n-broadcast: the 10^6-node scale of the ROADMAP north star.
	// Minutes-scale; run with every core (-workers 0).
	"huge-n-broadcast": {
		Topologies: []string{"randtree:1000000"},
		Algorithms: []AlgoSpec{
			{Task: Broadcast, Algo: "bgi"},
		},
		Seeds:      2,
		MasterSeed: 1,
	},
}

// Preset returns the named built-in matrix. The returned Matrix is a copy;
// callers may override Seeds/MasterSeed/MaxRounds freely.
func Preset(name string) (Matrix, error) {
	m, ok := presets[name]
	if !ok {
		return Matrix{}, fmt.Errorf("campaign: unknown preset %q (known: %s)", name, strings.Join(PresetNames(), " "))
	}
	cp := m
	cp.Topologies = append([]string(nil), m.Topologies...)
	cp.Algorithms = append([]AlgoSpec(nil), m.Algorithms...)
	return cp, nil
}

// PresetNames lists the built-in preset names in sorted order.
func PresetNames() []string {
	names := make([]string, 0, len(presets))
	for n := range presets {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}
