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

var recordRounds = flag.Bool("record-rounds", false, "rewrite testdata/cd17_rounds.txt from the current code")

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
	if testing.Short() {
		t.Skip("runs 1200 protocol trials")
	}
	m := coinDistMatrix()
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
		res := RunTrial(&plan.Configs[tr.Cfg], tr.Seed, plan.Max)
		got[tr.Cfg][tr.Rep] = res.Rounds
		failed[i] = !res.Done
	})
	for i, f := range failed {
		if f {
			t.Errorf("trial %d did not complete", i)
		}
	}
	path := filepath.Join("testdata", "cd17_rounds.txt")
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
			t.Errorf("%s: no recorded rounds", cell)
			continue
		}
		d := ksStatistic(rec, got[ci])
		crit := ksCritical(0.001, len(rec), len(got[ci]))
		t.Logf("%s: KS D = %.3f (critical %.3f), mean rounds %.0f recorded, %.0f now",
			cell, d, crit, mean(rec), mean(got[ci]))
		if d > crit {
			t.Errorf("%s: round distribution differs from the recording: KS D = %.3f > %.3f (α = 0.001)", cell, d, crit)
		}
	}
}

// readRecordedRounds parses cd17_rounds.txt: one line per cell, the
// algorithm spec and topology followed by one round count per trial.
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
