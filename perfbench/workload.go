package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math"
	"os"
	"runtime"
	"syscall"
	"time"

	"radionet/internal/campaign"
	"radionet/internal/rng"
	"radionet/internal/stats"
)

// workload is one pinned (topology, algorithm) configuration. A run of
// the workload runs Campaigns campaigns of Trials trials each, every
// campaign with its own master seed derived from the run's seed, so a run
// averages over several graphs and trial seeds. Workers and EngineShards
// stay at the campaign defaults (0/0) and the precompute cache stays off,
// so every campaign pays setup as a first run does.
type workload struct {
	Name      string
	Topology  string
	Algo      campaign.AlgoSpec
	Trials    int
	Campaigns int
	// MaxRounds caps every trial; 0 selects the algorithm's whp budget.
	MaxRounds int64
	// Ref is what the frozen copy measures on this workload on the
	// reference host at its usual speed. It sets the scale of the reported
	// timings, which are Ref times how much faster radionet ran than the
	// frozen copy in the same run.
	Ref refFigures
}

// refFigures are a workload's reference timings.
type refFigures struct {
	RoundsPerS    float64
	CPUUSPerRound float64
	SetupS        float64
}

// workloads are the pinned workloads; README.md gives the reason for
// each and the sizes measured on the reference host. Every campaign has
// one trial, so Campaign.Run resolves one worker and one shard, and every
// workload runs on one core: on the shared reference host a second core's
// speed drifts by 20–35% between runs. The campaign counts keep a run's
// means steady from one seed to the next — cd17's round count has a heavy
// tail on geometric graphs — while one run stays within about 25 seconds.
var workloads = []workload{
	{Name: "cd17_geo", Topology: "geometric:10000:0.03", Algo: campaign.AlgoSpec{Task: campaign.Broadcast, Algo: "cd17"}, Trials: 1, Campaigns: 14,
		Ref: refFigures{RoundsPerS: 2800, CPUUSPerRound: 370, SetupS: 0.031}},
	{Name: "cd17_leader_grid", Topology: "grid:8x512", Algo: campaign.AlgoSpec{Task: campaign.Leader, Algo: "cd17"}, Trials: 1, Campaigns: 11,
		Ref: refFigures{RoundsPerS: 20000, CPUUSPerRound: 50, SetupS: 0.00043}},
	{Name: "cd17_gnp_dense", Topology: "gnp:4096:0.05", Algo: campaign.AlgoSpec{Task: campaign.Broadcast, Algo: "cd17"}, Trials: 1, Campaigns: 20,
		Ref: refFigures{RoundsPerS: 4350, CPUUSPerRound: 336, SetupS: 0.102}},
}

func workloadNames() []string {
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.Name
	}
	return names
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.Name == name {
			return w, true
		}
	}
	return workload{}, false
}

// campaignSeed is the master seed of campaign k of a run with seed.
func campaignSeed(seed uint64, k int) uint64 { return rng.New(seed).Fork(uint64(k)).Uint64() }

// matrix is the workload's campaign matrix for one master seed.
func (w workload) matrix(seed uint64) campaign.Matrix {
	return campaign.Matrix{
		Topologies: []string{w.Topology},
		Algorithms: []campaign.AlgoSpec{w.Algo},
		// The explicit unfaulted spec runs the same trials, with the same
		// seeds, as a matrix without a fault axis; it makes the summary
		// carry the reach distribution the correctness gate reads.
		Faults:     []string{"none"},
		Seeds:      w.Trials,
		MasterSeed: seed,
		MaxRounds:  w.MaxRounds,
	}
}

// campaignRun is one Campaign.Run of a workload: its output, the gate's
// verdict and what it cost.
type campaignRun struct {
	sum    campaign.ConfigSummary
	stats  campaign.RunStats
	digest string        // sha256 of the JSONL sink output
	cpu    time.Duration // process user+sys CPU across Run
	rounds int64         // simulated rounds over all trials
	failed int           // trials the correctness gate rejects
}

func runCampaign(w workload, seed uint64) (campaignRun, error) {
	var r campaignRun
	c := campaign.Campaign{Matrix: w.matrix(seed), Stats: &r.stats}
	h := sha256.New()
	sink, err := campaign.NewSink("jsonl", h, c.SinkSchema(false))
	if err != nil {
		return r, err
	}
	cpu0 := cpuTime()
	sums, err := c.Run(sink)
	r.cpu = cpuTime() - cpu0
	if err != nil {
		return r, fmt.Errorf("%s: %w", w.Name, err)
	}
	if len(sums) != 1 {
		return r, fmt.Errorf("%s: %d summaries, want 1", w.Name, len(sums))
	}
	r.sum = sums[0]
	r.digest = hex.EncodeToString(h.Sum(nil))
	r.rounds = int64(math.Round(r.sum.Rounds.Mean * float64(r.sum.Trials)))
	r.failed = failedTrials(r.sum)
	return r, nil
}

// failedTrials applies the correctness gate to one summary: a trial fails
// unless it finished within budget and passed its Verify postcondition
// (Campaign.Run folds both into Failures) and reached its whole completion
// target. A summary keeps only the mean reach, so when the mean falls
// short of 1 with no failure recorded, every trial counts as failed.
func failedTrials(s campaign.ConfigSummary) int {
	if s.Failures > 0 {
		return s.Failures
	}
	if s.Reach == nil || s.Reach.Mean != 1 {
		return s.Trials
	}
	return 0
}

// tally applies the gate to a run's campaigns and to a second run of the
// first of them: each campaign's own verdict, and every trial of the
// second run when its sink output differs from the first run's.
func tally(runs []campaignRun, again campaignRun) report {
	rep := report{Metrics: metricSet{}}
	for _, r := range runs {
		rep.Attempted += r.sum.Trials
		rep.Failed += r.failed
	}
	rep.Attempted += again.sum.Trials
	if again.digest != runs[0].digest {
		rep.Failed += again.sum.Trials
	} else {
		rep.Failed += again.failed
	}
	rep.Correct = rep.Failed == 0
	return rep
}

// untraced runs each of the workload's campaigns once, in order, each
// paired with the same campaign on the frozen reference, then runs the
// first campaign again, which must reproduce its sink output. Each timing
// is the workload's reference figure scaled by how much faster radionet
// ran than the frozen copy: summed over the run for the rates, the median
// over pairs for setup_s.
func untraced(w workload, seed uint64, ref reference, env *environment) (report, error) {
	runs := make([]campaignRun, w.Campaigns)
	refs := make([]frozenResult, w.Campaigns)
	for k := range runs {
		plan, err := w.matrix(campaignSeed(seed, k)).Expand()
		if err != nil {
			return report{}, err
		}
		job := frozenJob{TopoSeed: plan.Configs[0].Key.Seed, TrialSeed: plan.Trials[0].Seed, MaxRounds: plan.Max}
		// The sides of a pair take turns going first, so that neither
		// gains from the order.
		if k%2 == 0 {
			if refs[k], err = ref.run(job); err != nil {
				return report{}, err
			}
		}
		runtime.GC() // every campaign starts from a collected heap
		if runs[k], err = runCampaign(w, campaignSeed(seed, k)); err != nil {
			return report{}, err
		}
		if k%2 == 1 {
			if refs[k], err = ref.run(job); err != nil {
				return report{}, err
			}
		}
		r := runs[k]
		fmt.Fprintf(os.Stderr, "campaign %d: %.1f rounds/s, %.2f us CPU/round, run phase %.2f s; frozen copy %.1f rounds/s\n",
			k, float64(r.rounds)/r.stats.Wall.Seconds(), r.cpu.Seconds()*1e6/float64(max(r.rounds, 1)), r.stats.Wall.Seconds(),
			float64(refs[k].Rounds)/refs[k].Wall.Seconds())
	}
	runtime.GC()
	again, err := runCampaign(w, campaignSeed(seed, 0))
	if err != nil {
		return report{}, err
	}
	rep := tally(runs, again)

	var rounds, refRounds int64
	var trials int
	var wall, cpu, refWall, refCPU time.Duration
	setup := make([]float64, len(runs))
	liveSetup := make([]float64, len(runs))
	refSetup := make([]float64, len(runs))
	for k, r := range runs {
		rounds += r.rounds
		trials += r.sum.Trials
		wall += r.stats.Wall
		cpu += r.cpu
		refRounds += refs[k].Rounds
		refWall += refs[k].Wall
		refCPU += refs[k].CPU
		setup[k] = ratio(r.stats.Setup.Seconds(), refs[k].Setup.Seconds())
		liveSetup[k], refSetup[k] = r.stats.Setup.Seconds(), refs[k].Setup.Seconds()
		env.SinkSHA256 = append(env.SinkSHA256, r.digest)
	}
	n, nRef := float64(max(rounds, 1)), float64(max(refRounds, 1))
	p := &pairing{
		RoundsPerS:       n / wall.Seconds(),
		RefRoundsPerS:    nRef / refWall.Seconds(),
		CPUUSPerRound:    cpu.Seconds() * 1e6 / n,
		RefCPUUSPerRound: refCPU.Seconds() * 1e6 / nRef,
		SetupS:           quantile(liveSetup, 0.5),
		RefSetupS:        quantile(refSetup, 0.5),
	}
	m := rep.Metrics
	m.set("rounds_per_s", "1/s", w.Ref.RoundsPerS*ratio(p.RoundsPerS, p.RefRoundsPerS))
	m.set("cpu_us_per_round", "us", w.Ref.CPUUSPerRound*ratio(p.CPUUSPerRound, p.RefCPUUSPerRound))
	m.set("setup_s", "s", w.Ref.SetupS*quantile(setup, 0.5))
	m.set("max_rss_mb", "MB", maxRSSMB())
	m.set("sim_rounds", "rounds", float64(rounds)/float64(trials))
	m.set("success_frac", "frac", 1-float64(rep.Failed)/float64(rep.Attempted))
	env.Workers, env.Shards = runs[0].stats.Workers, runs[0].stats.Shards
	env.Pairing = p
	return rep, nil
}

// quantile is stats.Quantile, with 0 for an empty sample.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	return stats.Quantile(xs, q)
}

// ratio is a/b, with 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// cpuTime returns the process's user plus system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// maxRSSMB returns the process's peak resident set size in MiB.
func maxRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}
