package campaign

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"radionet/internal/obs"
	"radionet/internal/precompute"
)

// TestTelemetryOutputNeutral is the observability acceptance criterion:
// attaching the full telemetry surface — metrics registry, run stats, the
// progress stream, and the precompute cache with its hit/miss/build
// metrics — must leave every sink byte-identical to a bare run, at any
// worker count. Telemetry observes the campaign; it never participates
// in it.
func TestTelemetryOutputNeutral(t *testing.T) {
	if testing.Short() {
		t.Skip("runs full protocol trials")
	}
	m := testMatrix(3)
	bare := runToBuffers(t, Campaign{Matrix: m, Workers: 1})
	for _, workers := range []int{1, 4} {
		var progress bytes.Buffer
		var st RunStats
		c := Campaign{
			Matrix:   m,
			Workers:  workers,
			Cache:    precompute.NewStore(t.TempDir()),
			Obs:      obs.NewRegistry(),
			Progress: &progress,
			Stats:    &st,
		}
		full := runToBuffers(t, c)
		for _, f := range []string{"text", "csv", "jsonl"} {
			if bare[f] != full[f] {
				t.Errorf("workers=%d: %s sink differs with telemetry attached:\n-- bare --\n%s\n-- telemetry --\n%s",
					workers, f, bare[f], full[f])
			}
			// The progress stream must never leak into a sink, and vice
			// versa: sink bytes carry no carriage-return rewrites.
			if strings.Contains(full[f], "\r") {
				t.Errorf("workers=%d: %s sink contains progress control bytes", workers, f)
			}
		}
		if progress.Len() == 0 {
			t.Errorf("workers=%d: progress writer got no output", workers)
		}
		if !strings.Contains(progress.String(), "trials") {
			t.Errorf("workers=%d: progress output unrecognizable: %q", workers, progress.String())
		}
	}
	// RunPlan shares Run's telemetry: it records every trial into the
	// registry and returns the results a bare RunPlan returns.
	plan, err := m.Expand()
	if err != nil {
		t.Fatal(err)
	}
	bareRes := withoutWall((&Campaign{Workers: 1}).RunPlan(plan))
	for _, workers := range []int{1, 4} {
		c := &Campaign{Workers: workers, Obs: obs.NewRegistry()}
		if got := withoutWall(c.RunPlan(plan)); !slices.Equal(got, bareRes) {
			t.Errorf("workers=%d: RunPlan results differ with telemetry attached", workers)
		}
		if got := c.Obs.Snapshot().Counters[obs.TrialsCompleted]; got != int64(len(plan.Trials)) {
			t.Errorf("workers=%d: RunPlan recorded %d trials, want %d", workers, got, len(plan.Trials))
		}
	}
}

// TestCampaignTelemetryContent checks that the registry and RunStats a
// campaign fills are self-consistent with what the sinks reported.
func TestCampaignTelemetryContent(t *testing.T) {
	if testing.Short() {
		t.Skip("runs full protocol trials")
	}
	m := testMatrix(2)
	plan, err := m.Expand()
	if err != nil {
		t.Fatal(err)
	}
	var st RunStats
	c := Campaign{Matrix: m, Workers: 2, Obs: obs.NewRegistry(), Stats: &st}
	summaries, err := c.Run()
	if err != nil {
		t.Fatal(err)
	}

	snap := c.Obs.Snapshot()
	trials := int64(len(plan.Trials))
	if got := snap.Counters[obs.TrialsCompleted]; got != trials {
		t.Errorf("trials.completed = %d, want %d", got, trials)
	}
	if snap.Counters[obs.EngineRounds] <= 0 {
		t.Error("engine.rounds not collected")
	}
	if snap.Counters[obs.EngineTx] <= 0 {
		t.Error("engine.transmissions not collected")
	}
	h, ok := snap.Histograms[obs.TrialRounds]
	if !ok || h.Count != trials {
		t.Fatalf("trial.rounds histogram count = %+v, want %d samples", h, trials)
	}
	// Budget-fraction telemetry: every algorithm in the test matrix
	// reports a default budget, so each trial lands one permille sample.
	bh, ok := snap.Histograms[obs.TrialBudgetPermille]
	if !ok || bh.Count != trials {
		t.Fatalf("trial.budget_used_permille count = %+v, want %d samples", bh, trials)
	}
	// Worker slots 0 and 1 both exist and account for every trial.
	var workerTrials int64
	for _, w := range []string{"worker.00.trials", "worker.01.trials"} {
		workerTrials += snap.Counters[w]
	}
	if workerTrials != trials {
		t.Errorf("worker trial counters sum to %d, want %d", workerTrials, trials)
	}

	if st.Workers != 2 || st.Wall <= 0 {
		t.Errorf("run stats header: %+v", st)
	}
	if len(st.Configs) != len(summaries) {
		t.Fatalf("stats configs = %d, want %d", len(st.Configs), len(summaries))
	}
	for i, cs := range st.Configs {
		s := summaries[i]
		if cs.Trials != s.Trials || cs.Failures != s.Failures || cs.RoundsMean != s.Rounds.Mean {
			t.Errorf("config %d stats diverge from summary: %+v vs %+v", i, cs, s)
		}
		if cs.Name == "" || cs.Wall <= 0 {
			t.Errorf("config %d stats incomplete: %+v", i, cs)
		}
	}

	// The manifest is the run's machine-readable record: it must survive
	// a write/read round trip under the strict schema and carry RunStats
	// through unchanged.
	path := filepath.Join(t.TempDir(), "manifest.json")
	if err := c.Manifest("campaign", &st).WriteFile(path); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	var man obs.Manifest
	if err := dec.Decode(&man); err != nil {
		t.Fatalf("manifest does not decode strictly: %v", err)
	}
	if man.ConfigHash != m.Hash() || man.Workers != 2 || man.Cache != "off" {
		t.Errorf("manifest header: hash=%q workers=%d cache=%q, want %q/2/off",
			man.ConfigHash, man.Workers, man.Cache, m.Hash())
	}
	if len(man.Configs) != len(st.Configs) {
		t.Fatalf("manifest configs = %d, want %d", len(man.Configs), len(st.Configs))
	}
	for i, rec := range man.Configs {
		cs := st.Configs[i]
		if rec.Name != cs.Name || rec.Trials != cs.Trials || rec.Failures != cs.Failures || rec.RoundsMean != cs.RoundsMean {
			t.Errorf("manifest config %d diverges from stats: %+v vs %+v", i, rec, cs)
		}
		if rec.WallMSMean != rec.WallMSTotal/float64(rec.Trials) {
			t.Errorf("manifest config %d: wall_ms_mean %v != wall_ms_total %v / %d trials",
				i, rec.WallMSMean, rec.WallMSTotal, rec.Trials)
		}
	}
	if rps := man.Metrics.Gauges[obs.EngineRoundsPerSec]; rps <= 0 {
		t.Errorf("manifest %s = %d, want > 0", obs.EngineRoundsPerSec, rps)
	}
}
