package campaign

import "testing"

// fuzzBuildNodes caps the node count of the accepted specs that
// FuzzTopologySpec builds, so a fuzzer-chosen size cannot make memory,
// not validation, the failure mode.
const fuzzBuildNodes = 128

// FuzzTopologySpec asserts the topology parser never panics, that
// accepted specs round-trip to the same canonical Spec, and that an
// accepted spec of at most fuzzBuildNodes nodes builds without a panic a
// graph of the node count the parser computed.
func FuzzTopologySpec(f *testing.F) {
	for _, seed := range []string{
		"path:64",
		"cycle:5",
		"star:9",
		"complete:4",
		"randtree:33",
		"grid:4x5",
		"cliquepath:3x4",
		"caterpillar:10x2",
		"tree:2x3",
		"dumbbell:5x3",
		"regular:16x4",
		"hypercube:6",
		"geometric:50:0.3",
		"gnp:40:0.1",
		" path:8 ",
		"grid:4x",
		"path:",
		"path:-1",
		"nosuch:3",
		"",
		"grid:0x5",
		"path:0",
		"gnp:0:0.1",
		"cycle:2",
		"hypercube:25",
		"tree:2x40",
		"tree:1x3",
		"regular:10x9",
		"regular:9x3",
		"geometric:5:NaN",
		"gnp:5:1.5",
		"gnp:40:1e-20",
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, s string) {
		topo, err := ParseTopology(s)
		if err != nil {
			return
		}
		if topo.Build == nil {
			t.Fatalf("accepted spec %q has no builder", s)
		}
		again, err := ParseTopology(topo.Spec)
		if err != nil {
			t.Fatalf("canonical spec %q (from %q) does not reparse: %v", topo.Spec, s, err)
		}
		if again.Spec != topo.Spec {
			t.Fatalf("canonical spec drifted: %q -> %q -> %q", s, topo.Spec, again.Spec)
		}
		if topo.nodes > fuzzBuildNodes {
			return
		}
		if g := topo.Build(1); g.N() != topo.nodes {
			t.Fatalf("spec %q built %d nodes, parser computed %d", s, g.N(), topo.nodes)
		}
	})
}
