// Command radiosim runs a protocol from the algorithm registry on a
// generated radio network topology and prints the outcome. The task and
// algorithm catalogue is whatever internal/protocol knows — print it with
// -list. Every run is a one-config campaign plan executed by
// campaign.Campaign.RunPlan, the trial path cmd/campaign and the
// experiment tables share. A single run is the plan's one trial, seeded
// by -seed; with -trials N the plan holds N independently seeded trials,
// fanned out across the campaign worker pool and reduced to aggregate
// round statistics. -trace installs a channel activity recorder as the
// campaign's round hook (Campaign.Hook) and prints its report after a
// single run.
//
// Examples:
//
//	radiosim -list
//	radiosim -topology grid -rows 16 -cols 64 -algo cd17
//	radiosim -topology cliquepath -k 32 -s 8 -algo bgi -seed 7
//	radiosim -topology geometric -n 500 -radius 0.08 -task leader
//	radiosim -topology grid -task leader -algo gh13
//	radiosim -topology grid -algo cd17 -trials 100 -workers 8
//	radiosim -topology grid -task leader -algo cd17 -faults crash:0.2@50
//	radiosim -topology grid -task partition -algo mpx -trace
package main

import (
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"
	"time"

	"radionet"
	"radionet/internal/campaign"
	"radionet/internal/obs"
	"radionet/internal/protocol"
	"radionet/internal/stats"
	"radionet/internal/trace"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "radiosim:", err)
		os.Exit(1)
	}
}

// run is the whole command: it parses args on its own flag set and writes
// every result line to stdout (diagnostics go to stderr).
func run(args []string, stdout io.Writer) error {
	flags := flag.NewFlagSet("radiosim", flag.ExitOnError)
	var (
		topology = flags.String("topology", "grid", "topology: path|cycle|grid|cliquepath|caterpillar|tree|geometric|gnp|hypercube")
		n        = flags.Int("n", 256, "node count (path, cycle, geometric, gnp)")
		rows     = flags.Int("rows", 16, "grid rows")
		cols     = flags.Int("cols", 16, "grid cols")
		k        = flags.Int("k", 16, "cliquepath clique count / caterpillar spine / tree depth")
		s        = flags.Int("s", 8, "cliquepath clique size / caterpillar legs / tree arity")
		radius   = flags.Float64("radius", 0.1, "geometric radius")
		p        = flags.Float64("p", 0.02, "gnp edge probability")
		dim      = flags.Int("dim", 8, "hypercube dimension")
		task     = flags.String("task", "broadcast", "task: any registered task (see -list)")
		algo     = flags.String("algo", "cd17", "algorithm name or alias for the task (see -list)")
		seed     = flags.Uint64("seed", 1, "master seed")
		value    = flags.Int64("value", 42, "broadcast message value")
		source   = flags.Int("source", 0, "broadcast source node")
		max      = flags.Int64("maxrounds", 0, "round budget (0 = algorithm default)")
		doTrace  = flags.Bool("trace", false, "print a channel activity report after the run")
		faults   = flags.String("faults", "", "fault scenario spec, e.g. crash:0.3@50+jam:0.05:p0.2 (fault-capable algorithms only; campaign grammar)")
		trials   = flags.Int("trials", 1, "independent runs of the scenario (each with a seed derived from -seed)")
		workers  = flags.Int("workers", 0, "worker goroutines for -trials fan-out (0 = GOMAXPROCS)")
		shards   = flags.Int("shards", 1, "intra-round engine shards (>1 splits delivery work across goroutines; output is byte-identical at any value)")
		manifest = flags.String("manifest", "", "write a machine-readable run manifest (JSON: scenario, outcome, metric snapshot) to this file")
		list     = flags.Bool("list", false, "print the registered algorithm table (task, name, aliases, capabilities) and exit")
	)
	if err := flags.Parse(args); err != nil {
		return err
	}

	if *list {
		fmt.Fprint(stdout, protocol.MarkdownTable())
		return nil
	}
	if *trials < 1 {
		return fmt.Errorf("-trials must be >= 1, got %d", *trials)
	}
	if *workers < 0 {
		return fmt.Errorf("-workers must be >= 0, got %d", *workers)
	}
	if *shards < 0 {
		return fmt.Errorf("-shards must be >= 0, got %d", *shards)
	}

	desc, ok := protocol.Lookup(protocol.Task(*task), *algo)
	if !ok {
		if !protocol.KnownTask(protocol.Task(*task)) {
			return fmt.Errorf("unknown task %q (see -list)", *task)
		}
		return fmt.Errorf("unknown %s algorithm %q (known: %s)", *task, *algo, protocol.KnownList(protocol.Task(*task)))
	}

	var faultSpec campaign.FaultSpec
	if *faults != "" {
		fs, err := campaign.ParseFaultSpec(*faults)
		if err != nil {
			return err
		}
		if !desc.Caps.Faults && !fs.None() {
			return fmt.Errorf("algorithm %s:%s does not support -faults", *task, desc.Name)
		}
		faultSpec = fs
	}

	// The topology flags become a campaign topology spec, so the sizes
	// are validated by the same parser as campaign -topos and a bad size
	// is a one-line error, not a generator panic.
	var spec string
	switch *topology {
	case "path", "cycle":
		spec = fmt.Sprintf("%s:%d", *topology, *n)
	case "grid":
		spec = fmt.Sprintf("grid:%dx%d", *rows, *cols)
	case "cliquepath", "caterpillar":
		spec = fmt.Sprintf("%s:%dx%d", *topology, *k, *s)
	case "tree":
		spec = fmt.Sprintf("tree:%dx%d", *s, *k)
	case "geometric":
		spec = fmt.Sprintf("geometric:%d:%s", *n, strconv.FormatFloat(*radius, 'g', -1, 64))
	case "gnp":
		spec = fmt.Sprintf("gnp:%d:%s", *n, strconv.FormatFloat(*p, 'g', -1, 64))
	case "hypercube":
		spec = fmt.Sprintf("hypercube:%d", *dim)
	default:
		return fmt.Errorf("unknown topology %q", *topology)
	}
	topo, err := campaign.ParseTopology(spec)
	if err != nil {
		return err
	}
	g := topo.Build(*seed)
	net := radionet.NewNetwork(g)
	fmt.Fprintf(stdout, "network: %v, diameter=%d\n", g, net.Diameter)
	// The -source/-value flags, for source-driven descriptors only; Build
	// rejects a source outside the graph and a negative value.
	var sources map[int]int64
	if desc.DefaultSources() != nil {
		sources = map[int]int64{*source: *value}
	}

	// Telemetry: one registry for the whole invocation (single run or the
	// -trials fan-out), written out as a manifest. Strictly observational
	// — stdout is unchanged by it.
	var reg *obs.Registry
	if *manifest != "" {
		reg = obs.NewRegistry()
	}
	scenario := fmt.Sprintf("%v/%s:%s", g, *task, desc.Name)
	start := time.Now()
	// Every run, single or -trials, is a one-config plan on the campaign's
	// trial path; a single run is the one trial seeded by -seed itself,
	// and -trials seeds trial i as a one-config Matrix with master seed
	// -seed does.
	var st campaign.RunStats
	c := &campaign.Campaign{Workers: *workers, EngineShards: *shards, Obs: reg, Stats: &st}
	cfg := campaign.Config{G: g, D: net.Diameter, Spec: campaign.AlgoSpec{Task: desc.Task, Algo: desc.Name}, Fault: faultSpec, Sources: sources}
	plan := &campaign.Plan{Configs: []campaign.Config{cfg}, Max: *max, Trials: []campaign.Trial{{Seed: *seed}}}
	if *trials > 1 {
		plan.Trials = make([]campaign.Trial, *trials)
		for i := range plan.Trials {
			plan.Trials[i] = campaign.Trial{Index: i, Rep: i, Seed: campaign.TrialSeed(*seed, 0, i)}
		}
	}

	runErr := func() error {
		var rec *trace.Recorder
		if *doTrace {
			if *trials > 1 {
				return fmt.Errorf("-trace requires a single run (drop -trials)")
			}
			rec = &trace.Recorder{}
			c.Hook = rec.HookFunc()
		}
		results := c.RunPlan(plan)
		if res := results[0]; res.Reason == "error" {
			// A Build error is identical for every trial.
			return errors.New(res.Err)
		}
		if *trials > 1 {
			return printTrials(stdout, results, *task, *algo)
		}
		return printRun(stdout, results[0], *task, *algo, faultSpec, rec)
	}()
	// The manifest is written even for incomplete runs — a budget-exhausted
	// run is telemetry too.
	if *manifest != "" {
		man := buildManifest(scenario, net.G.N(), net.Diameter, &st, time.Since(start), reg)
		if err := man.WriteFile(*manifest); err != nil && runErr == nil {
			runErr = err
		}
	}
	return runErr
}

// buildManifest assembles the radiosim run manifest: the one-scenario
// analogue of the campaign manifest, derived from the registry's trial
// metrics so both tools report the same schema. st supplies the worker
// pool size and engine shard count the run resolved.
func buildManifest(scenario string, n, d int, st *campaign.RunStats, wall time.Duration, reg *obs.Registry) *obs.Manifest {
	man := obs.NewManifest("radiosim")
	sum := sha256.Sum256([]byte(scenario))
	man.ConfigHash = hex.EncodeToString(sum[:])
	man.Generated = time.Now().UTC().Format(time.RFC3339)
	man.Workers, man.Shards = st.Workers, st.Shards
	man.WallMS = float64(wall.Nanoseconds()) / 1e6
	man.Protocols = campaign.RegisteredProtocols()
	snap := reg.Snapshot()
	rec := obs.ConfigRecord{
		Name:     scenario,
		N:        n,
		D:        d,
		Trials:   int(snap.Counters[obs.TrialsCompleted]),
		Failures: int(snap.Counters[obs.TrialsFailed]),
	}
	if h, ok := snap.Histograms[obs.TrialRounds]; ok {
		rec.RoundsMean = h.Mean()
	}
	if h, ok := snap.Histograms[obs.TrialWall]; ok {
		rec.WallMSTotal = float64(h.Sum) / 1000
		if rec.Trials > 0 {
			rec.WallMSMean = rec.WallMSTotal / float64(rec.Trials)
		}
	}
	man.Configs = []obs.ConfigRecord{rec}
	man.Metrics = snap
	return man
}

// printRun prints a single run's result line, its fault accounting under
// an effective fault spec, and rec's channel activity report when -trace
// installed one.
func printRun(w io.Writer, res campaign.TrialResult, task, algo string, faults campaign.FaultSpec, rec *trace.Recorder) error {
	switch protocol.Task(task) {
	case protocol.Broadcast:
		fmt.Fprintf(w, "broadcast(%s): done=%v rounds=%d precompute=%d\n", algo, res.Done, res.Rounds, res.Precompute)
	case protocol.Leader:
		fmt.Fprintf(w, "leader(%s): done=%v rounds=%d leader=node%d id=%d candidates=%d\n",
			algo, res.Done, res.Rounds, res.Leader, res.LeaderID, res.Candidates)
	default:
		fmt.Fprintf(w, "%s(%s): done=%v rounds=%d tx=%d\n", task, algo, res.Done, res.Rounds, res.Tx)
	}
	if !faults.None() {
		fmt.Fprintf(w, "faults(%s): survivors=%d reach=%d/%d\n", faults.Spec, res.Survivors, res.Reached, res.ReachTarget)
	}
	if rec != nil {
		if err := rec.Report(w); err != nil {
			return err
		}
	}
	if !res.Done {
		return fmt.Errorf("%s did not complete within budget", task)
	}
	return nil
}

// printTrials prints the -trials fan-out's aggregate round statistics.
// Output is identical for every -workers value.
func printTrials(w io.Writer, results []campaign.TrialResult, task, algo string) error {
	var agg stats.Running
	failures := 0
	for _, res := range results {
		agg.Add(float64(res.Rounds))
		if !res.Done {
			failures++
		}
	}
	s := agg.Summary()
	fmt.Fprintf(w, "%s(%s): trials=%d failures=%d\n", task, algo, len(results), failures)
	fmt.Fprintf(w, "rounds: mean=%.1f std=%.1f p50=%.1f p90=%.1f p99=%.1f max=%.0f\n",
		s.Mean, s.Std, s.P50, s.P90, s.P99, s.Max)
	if failures > 0 {
		return fmt.Errorf("%d/%d trials did not complete within budget", failures, len(results))
	}
	return nil
}
