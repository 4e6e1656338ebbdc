package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"radionet/internal/campaign"
	"radionet/internal/obs"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata/golden.txt from the current code")

// goldenCases are radiosim invocations on an 8x8 grid whose stdout, and
// whether they fail, are pinned in testdata/golden.txt. Error texts go
// to stderr and are not pinned. -trace prints a report on every runner;
// on leader:binary-search its "rounds:" line counts the simulated rounds,
// fewer than the run's charged rounds (silent bits run none).
var goldenCases = [][]string{
	{"-algo", "cd17"},
	{"-algo", "hw16"},
	{"-algo", "bgi"},
	{"-algo", "truncated-decay"},
	{"-task", "leader", "-algo", "cd17"},
	{"-task", "leader", "-algo", "binary-search"},
	{"-task", "leader", "-algo", "max-broadcast"},
	{"-task", "leader", "-algo", "gh13"},
	{"-algo", "cd17", "-faults", "crash:0.3@20"},
	{"-task", "leader", "-algo", "cd17", "-faults", "crash:0.3@20"},
	{"-algo", "cd17", "-maxrounds", "50"},
	{"-task", "leader", "-algo", "cd17", "-maxrounds", "50"},
	{"-algo", "cd17", "-source", "99"},
	{"-algo", "cd17", "-value", "-1"},
	{"-algo", "cd17", "-shards", "2"},
	{"-algo", "cd17", "-trace"},
	{"-task", "leader", "-algo", "cd17", "-trace"},
	{"-task", "leader", "-algo", "binary-search", "-trace"},
	{"-task", "partition", "-algo", "mpx"},
	{"-task", "partition", "-algo", "mpx", "-trials", "3"},
}

// TestGolden runs every golden case through run and compares the
// transcript — a "$ radiosim <args>" header, the case's stdout and an
// "exit: ok"/"exit: error" line — with testdata/golden.txt. Run with
// -update to rewrite the file after an intended output change.
func TestGolden(t *testing.T) {
	var got bytes.Buffer
	for _, args := range goldenCases {
		args = append([]string{"-rows", "8", "-cols", "8"}, args...)
		got.WriteString("$ radiosim " + strings.Join(args, " ") + "\n")
		exit := "ok"
		if err := run(args, &got); err != nil {
			exit = "error"
		}
		got.WriteString("exit: " + exit + "\n\n")
	}
	path := filepath.Join("testdata", "golden.txt")
	if *updateGolden {
		if err := os.WriteFile(path, got.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run with -update to create it)", err)
	}
	if bytes.Equal(got.Bytes(), want) {
		return
	}
	gotCases := strings.Split(got.String(), "\n\n")
	wantCases := strings.Split(string(want), "\n\n")
	for i := range max(len(gotCases), len(wantCases)) {
		var g, w string
		if i < len(gotCases) {
			g = gotCases[i]
		}
		if i < len(wantCases) {
			w = wantCases[i]
		}
		if g != w {
			t.Errorf("transcript differs from %s:\n--- got\n%s\n--- want\n%s", path, g, w)
		}
	}
}

// TestBadTopologySizes checks that topology sizes outside the
// generators' preconditions fail with a one-line error and print
// nothing, where they used to panic.
func TestBadTopologySizes(t *testing.T) {
	for _, args := range [][]string{
		{"-topology", "grid", "-rows", "0", "-cols", "5"},
		{"-topology", "path", "-n", "0"},
	} {
		checkOneLineError(t, args)
	}
}

// TestBadTrialCounts checks that a -trials count below 1, or a negative
// -workers or -shards, fails with a one-line error and prints nothing,
// where each used to run and exit 0.
func TestBadTrialCounts(t *testing.T) {
	for _, count := range [][]string{
		{"-trials", "0"},
		{"-trials", "-1"},
		{"-workers", "-3", "-trials", "2"},
		{"-shards", "-2"},
	} {
		checkOneLineError(t, append([]string{"-topology", "grid", "-rows", "4", "-cols", "4"}, count...))
	}
}

// checkOneLineError fails unless radiosim run with args returns an error
// of one line and prints nothing.
func checkOneLineError(t *testing.T, args []string) {
	t.Helper()
	var out bytes.Buffer
	err := run(args, &out)
	switch {
	case err == nil:
		t.Errorf("%v: no error, output %q", args, out.String())
	case strings.Contains(err.Error(), "\n"):
		t.Errorf("%v: error spans lines: %q", args, err)
	case out.Len() != 0:
		t.Errorf("%v: printed %q before failing", args, out.String())
	}
}

// TestTrialsUseMatrixSeeds checks that -trials N -seed S runs the trials
// of a one-config campaign Matrix with MasterSeed S: radiosim's summary
// equals that Matrix's results printed the same way.
func TestTrialsUseMatrixSeeds(t *testing.T) {
	var got bytes.Buffer
	if err := run([]string{"-rows", "8", "-cols", "8", "-task", "leader", "-algo", "max-broadcast", "-trials", "6", "-seed", "5"}, &got); err != nil {
		t.Fatal(err)
	}
	plan, err := campaign.Matrix{
		Topologies: []string{"grid:8x8"},
		Algorithms: []campaign.AlgoSpec{{Task: campaign.Leader, Algo: "max-broadcast"}},
		Seeds:      6,
		MasterSeed: 5,
	}.Expand()
	if err != nil {
		t.Fatal(err)
	}
	var want bytes.Buffer
	if err := printTrials(&want, (&campaign.Campaign{}).RunPlan(plan), "leader", "max-broadcast"); err != nil {
		t.Fatal(err)
	}
	if !strings.HasSuffix(got.String(), want.String()) {
		t.Errorf("radiosim -trials 6 -seed 5:\n%s\nwant the one-config Matrix's trials:\n%s", got.String(), want.String())
	}
}

// TestManifestParallelism checks that -manifest records the worker pool
// size and engine shard count the run resolved, not the raw flags:
// -workers 0 resolves as campaign.ResolveWorkers does, and -shards 2 runs
// two shards on a 128-node grid.
func TestManifestParallelism(t *testing.T) {
	for _, tc := range []struct {
		args            []string
		workers, shards int
	}{
		{[]string{"-rows", "8", "-cols", "8", "-trials", "4"}, campaign.ResolveWorkers(0, 4), 1},
		{[]string{"-rows", "8", "-cols", "16", "-shards", "2"}, 1, 2},
	} {
		path := filepath.Join(t.TempDir(), "manifest.json")
		if err := run(append(tc.args, "-manifest", path), io.Discard); err != nil {
			t.Fatal(err)
		}
		b, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		var m obs.Manifest
		if err := json.Unmarshal(b, &m); err != nil {
			t.Fatal(err)
		}
		if m.Workers != tc.workers || m.Shards != tc.shards {
			t.Errorf("%v: manifest workers=%d shards=%d, want %d and %d", tc.args, m.Workers, m.Shards, tc.workers, tc.shards)
		}
	}
}
