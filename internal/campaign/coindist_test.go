package campaign

import (
	"bufio"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"testing"
)

var recordRounds = flag.Bool("record-rounds", false, "rewrite the recorded distributions in testdata from the current code")

// coinDistMatrix is the distribution gate's campaign: cd17 broadcast and
// leader election on a long grid, a unit-disk graph and a square grid,
// 200 trials per cell.
func coinDistMatrix() Matrix {
	return Matrix{
		Topologies: []string{"grid:8x40", "geometric:400:0.1", "grid:16x16"},
		Algorithms: []AlgoSpec{
			{Task: Broadcast, Algo: "cd17"},
			{Task: Leader, Algo: "cd17"},
		},
		Seeds:      200,
		MasterSeed: 1,
	}
}

// TestCD17RoundsMatchRecordedDistribution reruns the coinDistMatrix
// trials and compares each cell's round counts with the per-trial counts
// recorded in testdata/cd17_rounds.txt. It fails when a two-sample
// Kolmogorov–Smirnov test rejects equality of the two distributions at
// α = 0.001 in any cell. The recording was made with per-node xoshiro
// transmission coins; the test gates a change of coin mechanism, which
// moves every trial's round count but must not move their distribution.
// Rerecord only when the protocol itself changes:
//
//	go test ./internal/campaign -run TestCD17RoundsMatchRecordedDistribution -record-rounds
func TestCD17RoundsMatchRecordedDistribution(t *testing.T) {
	checkRecordedDistribution(t, coinDistMatrix(), "cd17_rounds.txt")
}

// TestCompositesMatchRecordedDistribution is the same gate for the
// composite binary-search election, which re-arms one Decay broadcast
// per ID bit, on the coinDistMatrix topologies: its transmissions (its
// rounds are fixed at 40·T_BC), recorded in testdata/composite_dist.txt.
// It gates a change of how the sub-run seeds are derived or the
// candidates sampled, which moves every trial but must not move the
// distributions.
//
//	go test ./internal/campaign -run TestCompositesMatchRecordedDistribution -record-rounds
func TestCompositesMatchRecordedDistribution(t *testing.T) {
	m := coinDistMatrix()
	m.Algorithms = []AlgoSpec{{Task: Leader, Algo: "binary-search"}}
	checkRecordedDistribution(t, m, "composite_dist.txt")
}

// gatedValue is the per-trial quantity a distribution gate compares: the
// round count, except for binary-search, whose rounds are a constant.
func gatedValue(spec AlgoSpec, res TrialResult) int64 {
	if spec == (AlgoSpec{Task: Leader, Algo: "binary-search"}) {
		return res.Tx
	}
	return res.Rounds
}

// checkRecordedDistribution runs every trial of m and KS-tests each
// cell's gatedValue sample against the one recorded in testdata/file
// (or rewrites the recording under -record-rounds).
func checkRecordedDistribution(t *testing.T, m Matrix, file string) {
	if testing.Short() {
		t.Skip("runs 1200 protocol trials")
	}
	plan, err := m.Expand()
	if err != nil {
		t.Fatal(err)
	}
	got := make([][]int64, len(plan.Configs))
	for i := range got {
		got[i] = make([]int64, m.Seeds)
	}
	failed := make([]bool, len(plan.Trials))
	ForEach(0, len(plan.Trials), func(i int) {
		tr := plan.Trials[i]
		cfg := &plan.Configs[tr.Cfg]
		res := runTrial(cfg, tr.Seed, plan.Max, trialOpts{})
		got[tr.Cfg][tr.Rep] = gatedValue(cfg.Spec, res)
		failed[i] = !res.Done
	})
	for i, f := range failed {
		if f {
			t.Errorf("trial %d did not complete", i)
		}
	}
	path := filepath.Join("testdata", file)
	if *recordRounds {
		var b strings.Builder
		for ci, cfg := range plan.Configs {
			fmt.Fprintf(&b, "%s %s", cfg.Spec, cfg.Topology)
			for _, r := range got[ci] {
				fmt.Fprintf(&b, " %d", r)
			}
			b.WriteByte('\n')
		}
		if err := os.WriteFile(path, []byte(b.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := readRecordedRounds(path)
	if err != nil {
		t.Fatal(err)
	}
	for ci, cfg := range plan.Configs {
		cell := cfg.Spec.String() + " " + cfg.Topology
		rec, ok := want[cell]
		if !ok {
			t.Errorf("%s: no recorded values", cell)
			continue
		}
		d := ksStatistic(rec, got[ci])
		crit := ksCritical(0.001, len(rec), len(got[ci]))
		t.Logf("%s: KS D = %.3f (critical %.3f), mean %.0f recorded, %.0f now",
			cell, d, crit, mean(rec), mean(got[ci]))
		if d > crit {
			t.Errorf("%s: distribution differs from the recording: KS D = %.3f > %.3f (α = 0.001)", cell, d, crit)
		}
	}
}

// readRecordedRounds parses a recording: one line per cell, the
// algorithm spec and topology followed by one gated value per trial.
func readRecordedRounds(path string) (map[string][]int64, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	out := make(map[string][]int64)
	sc := bufio.NewScanner(f)
	sc.Buffer(nil, 1<<20)
	for sc.Scan() {
		fields := strings.Fields(sc.Text())
		if len(fields) < 3 {
			return nil, fmt.Errorf("%s: short line %q", path, sc.Text())
		}
		rounds := make([]int64, 0, len(fields)-2)
		for _, s := range fields[2:] {
			r, err := strconv.ParseInt(s, 10, 64)
			if err != nil {
				return nil, fmt.Errorf("%s: %w", path, err)
			}
			rounds = append(rounds, r)
		}
		out[fields[0]+" "+fields[1]] = rounds
	}
	return out, sc.Err()
}

// ksStatistic is the two-sample Kolmogorov–Smirnov statistic: the largest
// distance between the two empirical distribution functions.
func ksStatistic(a, b []int64) float64 {
	a, b = slices.Sorted(slices.Values(a)), slices.Sorted(slices.Values(b))
	var d float64
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		x := min(a[i], b[j])
		for i < len(a) && a[i] == x {
			i++
		}
		for j < len(b) && b[j] == x {
			j++
		}
		d = max(d, math.Abs(float64(i)/float64(len(a))-float64(j)/float64(len(b))))
	}
	return d
}

// ksCritical is the large-sample critical value of the two-sample KS
// statistic at level alpha for sample sizes n and m.
func ksCritical(alpha float64, n, m int) float64 {
	c := math.Sqrt(-math.Log(alpha/2) / 2)
	return c * math.Sqrt(float64(n+m)/float64(n*m))
}

func mean(xs []int64) float64 {
	var s float64
	for _, x := range xs {
		s += float64(x)
	}
	return s / float64(len(xs))
}
