package campaign

import (
	"bytes"
	"strings"
	"testing"

	"radionet/internal/protocol"
)

func testMatrix(seeds int) Matrix {
	return Matrix{
		Topologies: []string{"grid:4x8", "path:24", "cliquepath:4x4"},
		Algorithms: []AlgoSpec{
			{Task: Broadcast, Algo: "bgi"},
			{Task: Broadcast, Algo: "cd17"},
		},
		Seeds:      seeds,
		MasterSeed: 42,
	}
}

func TestExpandDeterministicOrder(t *testing.T) {
	m := testMatrix(3)
	p, err := m.Expand()
	if err != nil {
		t.Fatal(err)
	}
	if len(p.Configs) != 6 {
		t.Fatalf("%d configs, want 6", len(p.Configs))
	}
	if len(p.Trials) != 18 {
		t.Fatalf("%d trials, want 18", len(p.Trials))
	}
	// Topology-major, then algorithm, then repetition.
	if p.Configs[0].Topology != "grid:4x8" || p.Configs[1].Spec.Algo != "cd17" ||
		p.Configs[2].Topology != "path:24" {
		t.Fatalf("config order: %+v", p.Configs)
	}
	for i, tr := range p.Trials {
		if tr.Index != i || tr.Cfg != i/3 || tr.Rep != i%3 {
			t.Fatalf("trial %d out of order: %+v", i, tr)
		}
		if tr.Seed == 0 {
			t.Fatalf("trial %d has zero seed", i)
		}
	}
	// Trial seeds are pure functions of (master, cfg, rep): re-expansion
	// reproduces them; distinct trials get distinct streams.
	p2, _ := m.Expand()
	seen := map[uint64]bool{}
	for i := range p.Trials {
		if p.Trials[i].Seed != p2.Trials[i].Seed {
			t.Fatalf("trial %d seed not reproducible", i)
		}
		if seen[p.Trials[i].Seed] {
			t.Fatalf("duplicate trial seed at %d", i)
		}
		seen[p.Trials[i].Seed] = true
	}
}

func TestExpandRejectsBadMatrices(t *testing.T) {
	bad := []Matrix{
		{Algorithms: []AlgoSpec{{Broadcast, "bgi"}}, Seeds: 1},
		{Topologies: []string{"path:8"}, Seeds: 1},
		{Topologies: []string{"path:8"}, Algorithms: []AlgoSpec{{Broadcast, "bgi"}}},
		{Topologies: []string{"path:8"}, Algorithms: []AlgoSpec{{Broadcast, "warp"}}, Seeds: 1},
		{Topologies: []string{"path:8"}, Algorithms: []AlgoSpec{{Leader, "bgi"}}, Seeds: 1},
		{Topologies: []string{"path:8"}, Algorithms: []AlgoSpec{{"route", "bgi"}}, Seeds: 1},
		{Topologies: []string{"warp:8"}, Algorithms: []AlgoSpec{{Broadcast, "bgi"}}, Seeds: 1},
	}
	for i, m := range bad {
		if _, err := m.Expand(); err == nil {
			t.Errorf("matrix %d accepted", i)
		}
	}
}

// runToBuffers executes the campaign with every sink format attached and
// returns the rendered outputs keyed by format.
func runToBuffers(t *testing.T, c Campaign) map[string]string {
	t.Helper()
	bufs := map[string]*bytes.Buffer{}
	var sinks []Sink
	for _, f := range []string{"text", "csv", "jsonl"} {
		buf := &bytes.Buffer{}
		bufs[f] = buf
		s, err := NewSink(f, buf, c.Matrix.SinkSchema(c.Timings))
		if err != nil {
			t.Fatal(err)
		}
		sinks = append(sinks, s)
	}
	if _, err := c.Run(sinks...); err != nil {
		t.Fatal(err)
	}
	out := map[string]string{}
	for f, b := range bufs {
		if b.Len() == 0 {
			t.Fatalf("%s sink produced no output", f)
		}
		out[f] = b.String()
	}
	return out
}

// TestCampaignDeterministicAcrossWorkerCounts is the acceptance-criterion
// test: the same master seed must yield byte-identical output from every
// sink at 1 worker and at 8 workers.
func TestCampaignDeterministicAcrossWorkerCounts(t *testing.T) {
	if testing.Short() {
		t.Skip("runs full protocol trials")
	}
	m := testMatrix(5)
	serial := runToBuffers(t, Campaign{Matrix: m, Workers: 1})
	parallel := runToBuffers(t, Campaign{Matrix: m, Workers: 8})
	for _, f := range []string{"text", "csv", "jsonl"} {
		if serial[f] != parallel[f] {
			t.Errorf("%s output differs between 1 and 8 workers:\n-- workers=1 --\n%s\n-- workers=8 --\n%s",
				f, serial[f], parallel[f])
		}
	}
	if !strings.Contains(serial["csv"], "rounds.p99") {
		t.Errorf("csv header missing rounds.p99:\n%s", serial["csv"])
	}
	if strings.Contains(serial["jsonl"], "wall_ms") {
		t.Errorf("untimed campaign leaked wall_ms:\n%s", serial["jsonl"])
	}
	if got := strings.Count(serial["jsonl"], "\n"); got != 6 {
		t.Errorf("jsonl rows = %d, want 6", got)
	}
}

func TestCampaignLeaderTaskAndTimings(t *testing.T) {
	if testing.Short() {
		t.Skip("runs full protocol trials")
	}
	c := Campaign{
		Matrix: Matrix{
			Topologies: []string{"grid:4x6"},
			Algorithms: []AlgoSpec{
				{Task: Leader, Algo: "cd17"},
				{Task: Leader, Algo: "max-broadcast"},
				{Task: Leader, Algo: "binary-search"},
			},
			Seeds:      2,
			MasterSeed: 7,
		},
		Timings: true,
	}
	var buf bytes.Buffer
	s, _ := NewSink("jsonl", &buf, c.Matrix.SinkSchema(true))
	sums, err := c.Run(s)
	if err != nil {
		t.Fatal(err)
	}
	if len(sums) != 3 {
		t.Fatalf("%d summaries, want 3", len(sums))
	}
	for _, s := range sums {
		if s.Failures != 0 {
			t.Errorf("%s %s: %d failures", s.Task, s.Algo, s.Failures)
		}
		if s.Rounds.Mean <= 0 {
			t.Errorf("%s %s: non-positive mean rounds", s.Task, s.Algo)
		}
		if s.WallMS == nil {
			t.Errorf("%s %s: Timings set but no wall aggregate", s.Task, s.Algo)
		}
	}
	if !strings.Contains(buf.String(), "wall_ms") {
		t.Errorf("timed jsonl missing wall_ms:\n%s", buf.String())
	}
}

func TestRunTrialAllBroadcastAlgos(t *testing.T) {
	if testing.Short() {
		t.Skip("runs full protocol trials")
	}
	topo, _ := ParseTopology("grid:4x8")
	g := topo.Build(1)
	cfg := Config{Topology: "grid:4x8", G: g, D: g.DiameterEstimate()}
	for _, algo := range protocol.Names(Broadcast) {
		cfg.Spec = AlgoSpec{Task: Broadcast, Algo: algo}
		res := runTrial(&cfg, 3, 0, trialOpts{})
		if !res.Done || res.Err != "" {
			t.Errorf("%s: %+v", algo, res)
		}
		if res.Rounds <= 0 || res.Tx <= 0 {
			t.Errorf("%s: empty metrics %+v", algo, res)
		}
	}
	// A tiny budget must report failure, not success.
	cfg.Spec = AlgoSpec{Task: Broadcast, Algo: "bgi"}
	if res := runTrial(&cfg, 3, 1, trialOpts{}); res.Done {
		t.Error("1-round budget reported Done")
	}
}

// TestRunTrialMaxRoundsCapsEveryLeaderAlgo guards against any leader
// algorithm silently ignoring the per-trial budget.
func TestRunTrialMaxRoundsCapsEveryLeaderAlgo(t *testing.T) {
	if testing.Short() {
		t.Skip("runs full protocol trials")
	}
	topo, _ := ParseTopology("grid:4x8")
	g := topo.Build(1)
	cfg := Config{Topology: "grid:4x8", G: g, D: g.DiameterEstimate()}
	const cap = 400
	for _, algo := range []string{"cd17", "binary-search", "max-broadcast", "gh13"} {
		cfg.Spec = AlgoSpec{Task: Leader, Algo: algo}
		res := runTrial(&cfg, 3, cap, trialOpts{})
		if res.Err != "" {
			t.Errorf("%s: %s", algo, res.Err)
		}
		if res.Rounds > cap {
			t.Errorf("%s: ran %d rounds, cap %d", algo, res.Rounds, cap)
		}
	}
}

// TestRunTrialLeaderMetrics is the satellite-2 regression: every leader
// algorithm — including the composite baselines that used to report
// Tx: 0 — surfaces its engine transmission counts, and the partition
// task, registered through the protocol seam, runs as a campaign trial
// with no campaign code knowing its name.
func TestRunTrialLeaderMetrics(t *testing.T) {
	if testing.Short() {
		t.Skip("runs full protocol trials")
	}
	topo, _ := ParseTopology("grid:4x8")
	g := topo.Build(1)
	cfg := Config{Topology: "grid:4x8", G: g, D: g.DiameterEstimate()}
	for _, algo := range []string{"cd17", "binary-search", "max-broadcast", "gh13"} {
		cfg.Spec = AlgoSpec{Task: Leader, Algo: algo}
		res := runTrial(&cfg, 3, 0, trialOpts{})
		if !res.Done || res.Err != "" {
			t.Errorf("%s: %+v", algo, res)
		}
		if res.Tx <= 0 {
			t.Errorf("%s: Tx = %d, want > 0", algo, res.Tx)
		}
		if res.Leader < 0 || res.LeaderID <= 0 || res.Candidates <= 0 {
			t.Errorf("%s: no election outcome in %+v", algo, res)
		}
	}
	cfg.Spec = AlgoSpec{Task: "partition", Algo: "mpx"}
	res := runTrial(&cfg, 3, 0, trialOpts{})
	if !res.Done || res.Err != "" {
		t.Errorf("%s: %+v", cfg.Spec, res)
	}
	if res.Rounds <= 0 || res.Tx <= 0 || res.Leader != -1 {
		t.Errorf("%s: empty metrics or a leader in %+v", cfg.Spec, res)
	}
}

func TestLoadMatrix(t *testing.T) {
	src := `{
		"topologies": ["grid:4x8", "path:16"],
		"algorithms": [{"task": "broadcast", "algo": "cd17"}],
		"seeds": 4,
		"master_seed": 99
	}`
	m, err := LoadMatrix(strings.NewReader(src))
	if err != nil {
		t.Fatal(err)
	}
	if len(m.Topologies) != 2 || m.Seeds != 4 || m.MasterSeed != 99 ||
		m.Algorithms[0].Algo != "cd17" {
		t.Fatalf("loaded %+v", m)
	}
	// A matrix file from before the transport axis was retired must fail
	// loudly rather than quietly run every cell on the simulator.
	for _, bad := range []string{
		`{"unknown_field": 1}`,
		`{"topologies": ["grid:4x8"], "algorithms": [{"task": "broadcast", "algo": "cd17"}], "transports": ["lockstep"], "seeds": 4}`,
	} {
		if _, err := LoadMatrix(strings.NewReader(bad)); err == nil || !strings.Contains(err.Error(), "unknown field") {
			t.Fatalf("unknown field accepted in %s: %v", bad, err)
		}
	}
}
