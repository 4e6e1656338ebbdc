package campaign

import "testing"

// Every preset must expand cleanly: topology specs parse and algorithms
// validate. Graphs are not built here (the large-n presets would make the
// unit suite minutes-long); spec parsing plus algorithm validation is the
// part Expand would reject.
func TestPresetsAreWellFormed(t *testing.T) {
	names := PresetNames()
	if len(names) == 0 {
		t.Fatal("no presets registered")
	}
	for _, name := range names {
		m, err := Preset(name)
		if err != nil {
			t.Fatalf("Preset(%q): %v", name, err)
		}
		if len(m.Topologies) == 0 || len(m.Algorithms) == 0 || m.Seeds <= 0 {
			t.Fatalf("preset %q is incomplete: %+v", name, m)
		}
		for _, spec := range m.Topologies {
			if _, err := ParseTopology(spec); err != nil {
				t.Fatalf("preset %q topology %q: %v", name, spec, err)
			}
		}
		for _, a := range m.Algorithms {
			if _, err := lookup(a); err != nil {
				t.Fatalf("preset %q: %v", name, err)
			}
		}
	}
}

// Preset must return an isolated copy.
func TestPresetReturnsCopy(t *testing.T) {
	m1, err := Preset("smoke")
	if err != nil {
		t.Fatal(err)
	}
	m1.Topologies[0] = "mutated"
	m1.Algorithms[0].Algo = "mutated"
	m2, err := Preset("smoke")
	if err != nil {
		t.Fatal(err)
	}
	if m2.Topologies[0] == "mutated" || m2.Algorithms[0].Algo == "mutated" {
		t.Fatal("Preset returned shared slices")
	}
}

func TestPresetUnknown(t *testing.T) {
	if _, err := Preset("definitely-not-a-preset"); err == nil {
		t.Fatal("want error for unknown preset")
	}
}

// The smoke preset must actually run end to end.
func TestPresetSmokeRuns(t *testing.T) {
	m, err := Preset("smoke")
	if err != nil {
		t.Fatal(err)
	}
	m.Seeds = 1
	c := Campaign{Matrix: m, Workers: 2}
	sums, err := c.Run()
	if err != nil {
		t.Fatal(err)
	}
	if len(sums) != len(m.Topologies)*len(m.Algorithms) {
		t.Fatalf("got %d summaries, want %d", len(sums), len(m.Topologies)*len(m.Algorithms))
	}
	for _, s := range sums {
		if s.Failures != 0 {
			t.Fatalf("preset smoke config %s %s/%s failed trials: %+v", s.Topology, s.Task, s.Algo, s)
		}
	}
}
