package campaign

import "testing"

func TestParseTopologyFamilies(t *testing.T) {
	cases := []struct {
		spec string
		n    int
	}{
		{"path:16", 16},
		{"cycle:12", 12},
		{"star:9", 9},
		{"complete:6", 6},
		{"hypercube:4", 16},
		{"randtree:20", 20},
		{"grid:3x5", 15},
		{"cliquepath:4x3", 12},
		{"caterpillar:5x2", 15},
		{"tree:2x3", 15},
		{"regular:10x3", 10},
		{"geometric:40:0.4", 40},
		{"gnp:30:0.2", 30},
	}
	for _, c := range cases {
		topo, err := ParseTopology(c.spec)
		if err != nil {
			t.Errorf("%s: %v", c.spec, err)
			continue
		}
		g := topo.Build(1)
		if g.N() != c.n {
			t.Errorf("%s: n = %d, want %d", c.spec, g.N(), c.n)
		}
		if !g.IsConnected() {
			t.Errorf("%s: disconnected", c.spec)
		}
	}
}

// TestRegularDegreeTwoLarge builds a large 2-regular spec, which
// ParseTopology accepts: a random 2-regular pairing is almost never one
// cycle at this size, and the generator used to panic after redrawing.
// The graph must be a single cycle: connected, every degree 2.
func TestRegularDegreeTwoLarge(t *testing.T) {
	topo, err := ParseTopology("regular:20000x2")
	if err != nil {
		t.Fatal(err)
	}
	for _, seed := range []uint64{1, 2} {
		g := topo.Build(seed)
		if g.N() != 20000 || g.M() != 20000 || !g.IsConnected() {
			t.Fatalf("seed %d: %v is not one 20000-cycle (connected %v)", seed, g, g.IsConnected())
		}
		for v := 0; v < g.N(); v++ {
			if d := g.Degree(v); d != 2 {
				t.Fatalf("seed %d: node %d has degree %d, want 2", seed, v, d)
			}
		}
	}
}

func TestParseTopologyDeterministicRandomFamilies(t *testing.T) {
	for _, spec := range []string{"geometric:50:0.35", "gnp:40:0.15", "randtree:25"} {
		topo, err := ParseTopology(spec)
		if err != nil {
			t.Fatal(err)
		}
		a, b := topo.Build(7), topo.Build(7)
		if a.N() != b.N() || a.M() != b.M() {
			t.Errorf("%s: same seed built different graphs (%v vs %v)", spec, a, b)
		}
	}
}

// TestParseTopologyErrors covers malformed specs and sizes outside a
// generator's preconditions, which must fail to parse rather than panic
// in Build.
func TestParseTopologyErrors(t *testing.T) {
	for _, spec := range []string{
		"", "warp:9", "grid:4", "grid:4x", "path:axe", "geometric:40", "path", "path:1:2",
		"path:0", "star:-1", "cycle:2", "hypercube:-1", "hypercube:25", "randtree:0",
		"grid:0x5", "grid:5x-1", "cliquepath:0x3", "caterpillar:0x2", "caterpillar:3x-1",
		"tree:0x3", "tree:2x-1", "tree:2x40", "dumbbell:0x3", "dumbbell:3x-1",
		"regular:10x1", "regular:10x4", "regular:3x3", "regular:9x3",
		"geometric:0:0.1", "geometric:10:0", "geometric:10:NaN",
		"gnp:0:0.1", "gnp:10:-0.1", "gnp:10:1.5", "gnp:10:NaN",
		"grid:65536x65536",
	} {
		if _, err := ParseTopology(spec); err == nil {
			t.Errorf("%q: accepted", spec)
		}
	}
}
