package exp

import (
	"bytes"
	"fmt"
	"strings"
	"testing"

	"radionet/internal/campaign"
	"radionet/internal/cluster"
	"radionet/internal/compete"
	"radionet/internal/graph"
	"radionet/internal/radio"
	"radionet/internal/schedule"
)

func TestRegistryComplete(t *testing.T) {
	want := []string{"T1", "T2", "T3", "T4", "T5", "T6", "T7", "T8", "F1", "F2", "F3", "F4", "F5", "F6"}
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

// TestQuickKeepsExplicitSeeds checks that Quick caps only the default
// repetition count: an explicit Seeds is run as given.
func TestQuickKeepsExplicitSeeds(t *testing.T) {
	for _, c := range []struct {
		o    Options
		want int
	}{
		{Options{Quick: true, Seeds: 10}, 10},
		{Options{Quick: true, Seeds: 1}, 1},
		{Options{Quick: true}, 2},
		{Options{Seeds: 10}, 10},
		{Options{}, 3},
	} {
		if got := c.o.seeds(3, 2); got != c.want {
			t.Errorf("%+v: seeds(3, 2) = %d, want %d", c.o, got, c.want)
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

func TestT8VerdictFollowsFloods(t *testing.T) {
	tests := []struct {
		within, floods int
		want           string
	}{
		{32, 32, "verdict: reproduced;"},
		{29, 32, "verdict: not reproduced at this scale;"},
		{0, 32, "verdict: not reproduced at this scale;"},
		{0, 0, "verdict: inconclusive;"},
	}
	for _, tc := range tests {
		if got := t8Verdict(tc.within, tc.floods, 1.5); !strings.HasPrefix(got, tc.want) {
			t.Errorf("t8Verdict(%d, %d) = %q, want prefix %q", tc.within, tc.floods, got, tc.want)
		}
	}
}

// TestLadderFloodStaysInCluster runs T8's floods on a one-cluster clique
// and a one-cluster path: outward, every member ends with its center's
// value; inward, the center ends with its farthest member's. A message
// carrying another cluster's center is never adopted.
func TestLadderFloodStaysInCluster(t *testing.T) {
	for _, tc := range []struct {
		g                *graph.Graph
		center, farthest int
	}{
		{graph.Complete(16), 5, 0},
		{graph.Path(12), 4, 11},
	} {
		n := tc.g.N()
		part := &cluster.Result{Center: make([]int32, n), Dist: tc.g.BFS(tc.center)}
		for v := range part.Center {
			part.Center[v] = int32(tc.center)
		}
		sch := schedule.BuildScratch(tc.g, part, nil)
		budget := compete.SubPhaseRounds(int32(part.MaxStrongRadius()), sch.MaxLevel)
		for _, inward := range []bool{false, true} {
			f := newLadderFlood(part, sch, 7, inward)
			if _, done := radio.NewEngine(tc.g, f).RunUntil(t8Cap*budget, &f.prog); !done {
				t.Fatalf("%s inward=%v: flood did not finish in %d rounds", tc.g.Name(), inward, t8Cap*budget)
			}
			if inward {
				if got := f.val[tc.center]; got != int64(tc.farthest) {
					t.Errorf("%s: center holds %d after the inward flood, want %d", tc.g.Name(), got, tc.farthest)
				}
				continue
			}
			for v, a := range f.val {
				if a != int64(tc.center) {
					t.Errorf("%s: node %d holds %d after the outward flood, want %d", tc.g.Name(), v, a, tc.center)
				}
			}
		}
		f := newLadderFlood(part, sch, 7, false)
		v := int32((tc.center + 1) % n)
		msgs := []radio.Message{{Kind: compete.KindICP, A: 99, B: int64(v)}}
		f.RecvBulk(0, []int32{v}, []int32{0}, msgs)
		if f.val[v] != -1 || f.prog.Count() != 1 {
			t.Errorf("%s: node %d adopted a message from center %d, not its own %d", tc.g.Name(), v, v, tc.center)
		}
		msgs[0].B = int64(tc.center)
		f.RecvBulk(0, []int32{v}, []int32{0}, msgs)
		if f.val[v] != 99 || f.prog.Count() != 2 {
			t.Errorf("%s: node %d did not adopt its own center's message", tc.g.Name(), v)
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
		jmin, jmax := cluster.JRange(d)
		j := f6MidJ(d)
		if j < jmin || j > jmax {
			t.Fatalf("f6MidJ(%d) = %d, outside [%d, %d]", d, j, jmin, jmax)
		}
	}
}

// TestTableTrialSeedsDistinct checks that, for one master seed, the trial
// seeds of the tables that run protocol trials (F1–F6, T7, T8) never
// repeat within or across tables, over more cells and repetitions than
// any table runs at full scale. Adjacent per-table bases (Seed+1,
// Seed+2, ...) plus the repetition index would make F1's third trial
// F3's first.
func TestTableTrialSeedsDistinct(t *testing.T) {
	o := Options{Seed: 1}
	seen := make(map[uint64]string)
	for _, id := range []string{"F1", "F2", "F3", "F4", "F5", "F6", "T7", "T8"} {
		for cfg := 0; cfg < 32; cfg++ {
			for rep := 0; rep < 16; rep++ {
				at := fmt.Sprintf("%s cell %d rep %d", id, cfg, rep)
				seed := o.trialSeed(id, cfg, rep)
				if prev, ok := seen[seed]; ok {
					t.Fatalf("%s reuses the trial seed of %s", at, prev)
				}
				seen[seed] = at
			}
		}
	}
}

// TestRunCellsSeedsByTable checks that runCells seeds repetition s of
// cell c of table id with trialSeed(id, c, s), the derivation the
// distinctness test covers: each repetition equals the cell run alone as
// a one-config plan with that seed.
func TestRunCellsSeedsByTable(t *testing.T) {
	o := Options{Seed: 3, Workers: 2}
	g := graph.Grid(4, 8)
	cells := []campaign.Config{cell(g, g.Diameter(), broadcast("bgi")), cell(g, g.Diameter(), broadcast("truncated-decay"))}
	for c, rs := range o.runCells("F1", cells, 3) {
		for s, got := range rs {
			plan := &campaign.Plan{Configs: cells[c : c+1], Trials: []campaign.Trial{{Seed: o.trialSeed("F1", c, s)}}}
			want := (&campaign.Campaign{}).RunPlan(plan)[0]
			got.Wall, want.Wall = 0, 0
			if got != want {
				t.Errorf("cell %d rep %d: runCells %+v, trialSeed run %+v", c, s, got, want)
			}
		}
	}
}
