package exp

import (
	"bytes"
	"strings"
	"testing"

	"radionet/internal/cluster"
	"radionet/internal/compete"
	"radionet/internal/graph"
)

func TestRegistryComplete(t *testing.T) {
	want := []string{"T1", "T2", "T3", "T4", "T5", "T6", "T7", "T8", "F1", "F2", "F3", "F4", "F5", "F6", "F7"}
	ids := IDs()
	if len(ids) != len(want) {
		t.Fatalf("registry has %d experiments: %v", len(ids), ids)
	}
	seen := make(map[string]bool)
	for _, id := range ids {
		seen[id] = true
		if Title(id) == "" {
			t.Errorf("experiment %s has no title", id)
		}
	}
	for _, id := range want {
		if !seen[id] {
			t.Errorf("experiment %s missing", id)
		}
	}
}

func TestRunUnknown(t *testing.T) {
	if _, err := Run("Z9", Options{}); err == nil {
		t.Fatal("unknown experiment accepted")
	}
}

func TestTableRendering(t *testing.T) {
	tbl := &Table{
		ID:         "X",
		Title:      "demo",
		PaperClaim: "claim",
		Columns:    []string{"a", "bb"},
	}
	tbl.AddRow(1, 2.5)
	tbl.AddRow("x", "y")
	tbl.Note("hello %d", 7)
	var buf bytes.Buffer
	if err := tbl.Render(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"== X: demo ==", "claim", "2.5", "hello 7"} {
		if !strings.Contains(out, want) {
			t.Fatalf("rendered table missing %q:\n%s", want, out)
		}
	}
	buf.Reset()
	if err := tbl.CSV(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(buf.String(), "a,bb\n1,2.5\n") {
		t.Fatalf("csv output:\n%s", buf.String())
	}
}

// TestAllExperimentsQuick executes every registered experiment at quick
// scale: the full integration test of the reproduction pipeline.
func TestAllExperimentsQuick(t *testing.T) {
	if testing.Short() {
		t.Skip("integration test")
	}
	for _, id := range IDs() {
		id := id
		t.Run(id, func(t *testing.T) {
			tbl, err := Run(id, Options{Seed: 1, Quick: true, Seeds: 2})
			if err != nil {
				t.Fatal(err)
			}
			if len(tbl.Rows) == 0 {
				t.Fatal("experiment produced no rows")
			}
			var buf bytes.Buffer
			if err := tbl.Render(&buf); err != nil {
				t.Fatal(err)
			}
		})
	}
}

func TestExperimentsDeterministic(t *testing.T) {
	if testing.Short() {
		t.Skip("integration test")
	}
	a, err := Run("T2", Options{Seed: 9, Quick: true, Seeds: 2})
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run("T2", Options{Seed: 9, Quick: true, Seeds: 2})
	if err != nil {
		t.Fatal(err)
	}
	var ba, bb bytes.Buffer
	if err := a.Render(&ba); err != nil {
		t.Fatal(err)
	}
	if err := b.Render(&bb); err != nil {
		t.Fatal(err)
	}
	if ba.String() != bb.String() {
		t.Fatal("same options produced different tables")
	}
}

// TestExperimentsDeterministicAcrossWorkers checks that routing the
// repetition loops through the campaign executor did not make tables
// depend on the worker count: serial and 8-worker runs must render
// byte-identically for every experiment.
func TestExperimentsDeterministicAcrossWorkers(t *testing.T) {
	if testing.Short() {
		t.Skip("integration test")
	}
	for _, id := range IDs() {
		id := id
		t.Run(id, func(t *testing.T) {
			render := func(workers int) string {
				tbl, err := Run(id, Options{Seed: 5, Quick: true, Seeds: 3, Workers: workers})
				if err != nil {
					t.Fatal(err)
				}
				var buf bytes.Buffer
				if err := tbl.Render(&buf); err != nil {
					t.Fatal(err)
				}
				return buf.String()
			}
			serial, parallel := render(1), render(8)
			if serial != parallel {
				t.Errorf("table differs between 1 and 8 workers:\n-- 1 --\n%s\n-- 8 --\n%s", serial, parallel)
			}
		})
	}
}

func TestF1VerdictFollowsData(t *testing.T) {
	tests := []struct {
		slope       float64
		ok          bool
		below, rows int
		want        string
	}{
		{-0.8, true, 3, 3, "verdict: reproduced;"},
		{0, true, 3, 3, "verdict: reproduced;"},
		{3.78, true, 2, 3, "verdict: not reproduced at this scale;"},
		{3.78, true, 3, 3, "verdict: not reproduced at this scale;"},
		{-0.8, true, 2, 3, "verdict: not reproduced at this scale;"},
		{-0.8, false, 3, 3, "verdict: inconclusive;"},
		{-0.8, true, 0, 0, "verdict: inconclusive;"},
	}
	for _, tc := range tests {
		if got := f1Verdict(tc.slope, tc.ok, tc.below, tc.rows); !strings.HasPrefix(got, tc.want) {
			t.Errorf("f1Verdict(%v, %v, %d, %d) = %q, want prefix %q", tc.slope, tc.ok, tc.below, tc.rows, got, tc.want)
		}
	}
}

func TestF5VerdictFollowsSlopes(t *testing.T) {
	tests := []struct {
		cd17, bgi float64
		ok        bool
		want      string
	}{
		{0.5, 1.54, true, "verdict: reproduced;"},
		{2.45, 1.54, true, "verdict: not reproduced at this scale;"},
		{1.54, 1.54, true, "verdict: not reproduced at this scale;"},
		{0.5, 1.54, false, "verdict: inconclusive;"},
	}
	for _, tc := range tests {
		if got := f5Verdict(tc.cd17, tc.bgi, tc.ok); !strings.HasPrefix(got, tc.want) {
			t.Errorf("f5Verdict(%v, %v, %v) = %q, want prefix %q", tc.cd17, tc.bgi, tc.ok, got, tc.want)
		}
	}
}

// TestF6MidJInRange checks that F6's "fixed j" ablation pins an exponent
// cd17 can draw at any diameter, and the middle one on both F6 grids.
func TestF6MidJInRange(t *testing.T) {
	for _, tc := range []struct {
		g    *graph.Graph
		want int
	}{
		{graph.Grid(8, 48), 3},  // D = 54, j in [1, 5]
		{graph.Grid(8, 128), 3}, // D = 134, j in [1, 6]
	} {
		if got := f6MidJ(tc.g.DiameterEstimate()); got != tc.want {
			t.Errorf("f6MidJ(%d) = %d, want %d", tc.g.DiameterEstimate(), got, tc.want)
		}
	}
	for d := 0; d <= 5000; d++ {
		jmin, jmax := cluster.JRange(d, compete.DefaultFineLoFrac, compete.DefaultFineHiFrac)
		j := f6MidJ(d)
		if j < jmin || j > jmax {
			t.Fatalf("f6MidJ(%d) = %d, outside [%d, %d]", d, j, jmin, jmax)
		}
	}
}
