package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"maps"
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"strings"
	"testing"
	"time"

	"radionet/internal/campaign"
)

// tinyBroadcast and tinyLeader run the pinned workloads' code paths at a
// size unit tests can afford.
var (
	tinyBroadcast = workload{Name: "tiny_broadcast", Topology: "grid:4x8", Algo: campaign.AlgoSpec{Task: campaign.Broadcast, Algo: "cd17"}, Trials: 3, Campaigns: 2}
	tinyLeader    = workload{Name: "tiny_leader", Topology: "grid:4x8", Algo: campaign.AlgoSpec{Task: campaign.Leader, Algo: "cd17"}, Trials: 2, Campaigns: 1}
)

var nameRE = regexp.MustCompile(`^[A-Za-z0-9_.-]{1,64}$`)

// benchmarkFile is BENCHMARK.json; decoding rejects any other key.
type benchmarkFile struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

func loadBenchmarkFile(t *testing.T) benchmarkFile {
	t.Helper()
	f, err := os.Open(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	dec := json.NewDecoder(f)
	dec.DisallowUnknownFields()
	var bf benchmarkFile
	if err := dec.Decode(&bf); err != nil {
		t.Fatalf("BENCHMARK.json: %v", err)
	}
	return bf
}

func units(m metricSet) map[string]string {
	out := make(map[string]string, len(m))
	for k, v := range m {
		out[k] = v.Unit
	}
	return out
}

// shape is how a workload's why in BENCHMARK.json must begin: what the
// program runs, in the program's own numbers.
func shape(w workload) string {
	plural := "s"
	if w.Trials == 1 {
		plural = ""
	}
	return fmt.Sprintf("%s on %s, %d campaigns of %d trial%s", w.Algo, w.Topology, w.Campaigns, w.Trials, plural)
}

func TestNamesMatchContract(t *testing.T) {
	bf := loadBenchmarkFile(t)
	names := workloadNames()
	for _, m := range bf.EndToEnd {
		names = append(names, m.Name)
	}
	for _, m := range bf.PerLayer {
		names = append(names, m.Name)
	}
	for _, n := range names {
		if !nameRE.MatchString(n) {
			t.Errorf("name %q does not match %s", n, nameRE)
		}
	}
}

// TestBenchmarkFileMatchesProgram pins BENCHMARK.json to what the program
// runs and prints: the same workloads, and the same metric names and units
// for both trace modes.
func TestBenchmarkFileMatchesProgram(t *testing.T) {
	bf := loadBenchmarkFile(t)
	var names []string
	for _, w := range bf.Workloads {
		names = append(names, w.Name)
		if w.Why == "" || len(w.Why) > 200 || strings.ContainsAny(w.Why, "\r\n") {
			t.Errorf("workload %s: why must be one line of 1 to 200 characters", w.Name)
		}
		if pw, ok := findWorkload(w.Name); ok && !strings.HasPrefix(w.Why, shape(pw)) {
			t.Errorf("workload %s: why %q does not start with %q", w.Name, w.Why, shape(pw))
		}
	}
	if !slices.Equal(names, workloadNames()) {
		t.Errorf("BENCHMARK.json workloads %v, program runs %v", names, workloadNames())
	}

	var env environment
	e2e, err := untraced(tinyBroadcast, 1, inProcessReference{tinyBroadcast}, &env)
	if err != nil {
		t.Fatal(err)
	}
	layers, err := traced(tinyBroadcast, 1, t.TempDir(), &env)
	if err != nil {
		t.Fatal(err)
	}
	declared := map[string]string{}
	setup := false
	for _, m := range bf.EndToEnd {
		declared[m.Name] = m.Unit
		if !(m.Bound > 0 && m.Bound <= 0.25) || (m.Better != "higher" && m.Better != "lower") {
			t.Errorf("end-to-end metric %s: bound %v, better %q", m.Name, m.Bound, m.Better)
		}
		setup = setup || (m.Name == "setup_s" && m.Unit == "s" && m.Better == "lower")
	}
	if !setup {
		t.Error("BENCHMARK.json lacks setup_s in s, lower is better")
	}
	if got := units(e2e.Metrics); !maps.Equal(declared, got) {
		t.Errorf("end-to-end metrics: BENCHMARK.json %v, program %v", declared, got)
	}
	declared = map[string]string{}
	for _, m := range bf.PerLayer {
		declared[m.Name] = m.Unit
		if m.Better != "higher" && m.Better != "lower" {
			t.Errorf("per-layer metric %s: better %q", m.Name, m.Better)
		}
	}
	if got := units(layers.Metrics); !maps.Equal(declared, got) {
		t.Errorf("per-layer metrics: BENCHMARK.json %v, program %v", declared, got)
	}
}

func TestTinyBudgetCountsFailures(t *testing.T) {
	w := tinyBroadcast
	w.MaxRounds = 3
	var env environment
	rep, err := untraced(w, 1, inProcessReference{w}, &env)
	if err != nil {
		t.Fatal(err)
	}
	if want := w.Trials * (w.Campaigns + 1); rep.Attempted != want || rep.Failed == 0 || rep.Correct {
		t.Fatalf("budget-starved run: attempted %d failed %d correct %v, want %d attempted, failures", rep.Attempted, rep.Failed, rep.Correct, want)
	}
	if f := rep.Metrics["success_frac"].Value; f >= 1 {
		t.Fatalf("budget-starved run: success_frac %v", f)
	}
	rep, err = traced(w, 1, t.TempDir(), &env)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Attempted != 3*w.Trials || rep.Failed == 0 || rep.Correct {
		t.Fatalf("budget-starved traced run: attempted %d failed %d correct %v", rep.Attempted, rep.Failed, rep.Correct)
	}
}

func TestOutputMismatchFails(t *testing.T) {
	r, err := runCampaign(tinyBroadcast, 1)
	if err != nil {
		t.Fatal(err)
	}
	if rep := tally([]campaignRun{r}, r); rep.Failed != 0 || !rep.Correct {
		t.Fatalf("identical repetitions: %d failed", rep.Failed)
	}
	bad := r
	bad.digest = "x" + r.digest[1:]
	if rep := tally([]campaignRun{r}, bad); rep.Failed != r.sum.Trials || rep.Correct {
		t.Fatalf("repetition with different sink output: %d failed, want %d", rep.Failed, r.sum.Trials)
	}

	out, err := replay(tinyBroadcast, 1, 1, newTracer(), t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if out.mismatch != "" {
		t.Fatalf("replayed %s product differs", out.mismatch)
	}
	if n := gate(r.sum, out.trials); n != 0 {
		t.Fatalf("faithful replay: %d trials failed", n)
	}
	sum := r.sum
	sum.Tx.Mean++
	if n := gate(sum, out.trials); n != len(out.trials) {
		t.Fatalf("replay disagreeing with the summary: %d trials failed, want %d", n, len(out.trials))
	}
}

func TestTracedLeaderRun(t *testing.T) {
	var env environment
	dir := t.TempDir()
	rep, err := traced(tinyLeader, 7, dir, &env)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Correct || rep.Failed != 0 || rep.Attempted != 3*tinyLeader.Trials {
		t.Fatalf("traced leader run: correct %v, %d of %d failed", rep.Correct, rep.Failed, rep.Attempted)
	}
	for _, name := range []string{"radio.round_samples", "protocol.build_s", "graph.gen_s", "precompute.bytes"} {
		if rep.Metrics[name].Value <= 0 {
			t.Errorf("%s = %v, want > 0", name, rep.Metrics[name].Value)
		}
	}
	b, err := os.ReadFile(filepath.Join(dir, tinyLeader.Name+".jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	if lines := strings.Count(string(b), "\n"); lines != int(rep.Metrics["trace.spans"].Value) {
		t.Fatalf("span file has %d lines, run reports %v spans", lines, rep.Metrics["trace.spans"].Value)
	}
}

func TestSelfTimes(t *testing.T) {
	spans := []span{
		{Name: "campaign.run", ID: 0, Parent: -1, Start: 0, End: 100},
		{Name: "protocol.build", ID: 1, Parent: 0, Start: 10, End: 40},
		// Overlaps the build, as a trial on a second worker does.
		{Name: "radio.run", ID: 2, Parent: 0, Start: 30, End: 60},
		{Name: "radio.round", ID: 3, Parent: 2, Start: 30, End: 50},
	}
	want := map[string]time.Duration{"campaign": 50, "protocol": 30, "radio": 10 + 20}
	if got := selfTimes(spans); !maps.Equal(got, want) {
		t.Fatalf("self times %v, want %v", got, want)
	}
}

// TestFrozenServesJobs drives the frozen reference's protocol: one reply
// per job, the same rounds for the same job, and a clean end at EOF.
func TestFrozenServesJobs(t *testing.T) {
	plan, err := tinyBroadcast.matrix(1).Expand()
	if err != nil {
		t.Fatal(err)
	}
	job := frozenJob{TopoSeed: plan.Configs[0].Key.Seed, TrialSeed: plan.Trials[0].Seed, MaxRounds: plan.Max}
	var in, out bytes.Buffer
	enc := json.NewEncoder(&in)
	for range 2 {
		if err := enc.Encode(job); err != nil {
			t.Fatal(err)
		}
	}
	if err := serveFrozen(tinyBroadcast, &in, &out); err != nil {
		t.Fatal(err)
	}
	dec := json.NewDecoder(&out)
	var res [2]frozenResult
	for i := range res {
		if err := dec.Decode(&res[i]); err != nil {
			t.Fatal(err)
		}
		if res[i].Err != "" || res[i].Rounds <= 0 || res[i].Wall <= 0 || res[i].Setup <= 0 {
			t.Fatalf("reply %d: %+v", i, res[i])
		}
	}
	if res[0].Rounds != res[1].Rounds {
		t.Fatalf("the same job ran %d and %d rounds", res[0].Rounds, res[1].Rounds)
	}
}
