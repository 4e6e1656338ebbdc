// Command radiosim runs a protocol from the algorithm registry on a
// generated radio network topology and prints the outcome. The task and
// algorithm catalogue is whatever internal/protocol knows — print it with
// -list. With -trials N it fans N independently seeded runs of the same
// scenario out across the campaign worker pool and prints aggregate round
// statistics.
//
// Examples:
//
//	radiosim -list
//	radiosim -topology grid -rows 16 -cols 64 -algo cd17
//	radiosim -topology cliquepath -k 32 -s 8 -algo bgi -seed 7
//	radiosim -topology geometric -n 500 -radius 0.08 -task leader
//	radiosim -topology grid -task leader -algo gh13
//	radiosim -topology grid -task multicast -algo pipelined
//	radiosim -topology grid -algo cd17 -trials 100 -workers 8
//	radiosim -topology grid -task leader -algo cd17 -faults crash:0.2@50
package main

import (
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"flag"
	"fmt"
	"os"
	"time"

	"radionet"
	"radionet/internal/campaign"
	"radionet/internal/obs"
	"radionet/internal/protocol"
	"radionet/internal/rng"
	"radionet/internal/stats"
	"radionet/internal/trace"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "radiosim:", err)
		os.Exit(1)
	}
}

func run() error {
	var (
		topology = flag.String("topology", "grid", "topology: path|cycle|grid|cliquepath|caterpillar|tree|geometric|gnp|hypercube")
		n        = flag.Int("n", 256, "node count (path, cycle, geometric, gnp)")
		rows     = flag.Int("rows", 16, "grid rows")
		cols     = flag.Int("cols", 16, "grid cols")
		k        = flag.Int("k", 16, "cliquepath clique count / caterpillar spine / tree depth")
		s        = flag.Int("s", 8, "cliquepath clique size / caterpillar legs / tree arity")
		radius   = flag.Float64("radius", 0.1, "geometric radius")
		p        = flag.Float64("p", 0.02, "gnp edge probability")
		dim      = flag.Int("dim", 8, "hypercube dimension")
		task     = flag.String("task", "broadcast", "task: any registered task (see -list)")
		algo     = flag.String("algo", "cd17", "algorithm name or alias for the task (see -list)")
		seed     = flag.Uint64("seed", 1, "master seed")
		value    = flag.Int64("value", 42, "broadcast message value")
		source   = flag.Int("source", 0, "broadcast source node")
		max      = flag.Int64("maxrounds", 0, "round budget (0 = algorithm default)")
		doTrace  = flag.Bool("trace", false, "print a channel activity report after the run")
		faults   = flag.String("faults", "", "fault scenario spec, e.g. crash:0.3@50+jam:0.05:p0.2 (fault-capable algorithms only; campaign grammar)")
		trials   = flag.Int("trials", 1, "independent runs of the scenario (each with a seed derived from -seed)")
		workers  = flag.Int("workers", 0, "worker goroutines for -trials fan-out (0 = GOMAXPROCS)")
		shards   = flag.Int("shards", 1, "intra-round engine shards (>1 splits delivery work across goroutines; output is byte-identical at any value)")
		manifest = flag.String("manifest", "", "write a machine-readable run manifest (JSON: scenario, outcome, metric snapshot) to this file")
		debug    = flag.String("debug-addr", "", "serve /debug/vars (live metrics) and /debug/pprof on this address for the run, e.g. :6060")
		list     = flag.Bool("list", false, "print the registered algorithm table (task, name, aliases, capabilities) and exit")
	)
	flag.Parse()

	if *list {
		fmt.Print(protocol.MarkdownTable())
		return nil
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

	var g *radionet.Graph
	switch *topology {
	case "path":
		g = radionet.Path(*n)
	case "cycle":
		g = radionet.Cycle(*n)
	case "grid":
		g = radionet.Grid(*rows, *cols)
	case "cliquepath":
		g = radionet.PathOfCliques(*k, *s)
	case "caterpillar":
		g = radionet.Caterpillar(*k, *s)
	case "tree":
		g = radionet.BalancedTree(*s, *k)
	case "geometric":
		g = radionet.RandomGeometric(*n, *radius, *seed)
	case "gnp":
		g = radionet.Gnp(*n, *p, *seed)
	case "hypercube":
		g = radionet.Hypercube(*dim)
	default:
		return fmt.Errorf("unknown topology %q", *topology)
	}
	net := radionet.NewNetwork(g)
	fmt.Printf("network: %v, diameter=%d\n", g, net.Diameter)
	// The -source/-value flags, for source-driven descriptors only; Build
	// rejects a source outside the graph.
	var sources map[int]int64
	if desc.DefaultSources() != nil {
		sources = map[int]int64{*source: *value}
	}

	// Telemetry: one registry for the whole invocation (single run or the
	// -trials fan-out), scrapeable live via -debug-addr and written out as
	// a manifest. Strictly observational — stdout is unchanged by it.
	var reg *obs.Registry
	if *manifest != "" || *debug != "" {
		reg = obs.NewRegistry()
	}
	if *debug != "" {
		srv, err := obs.StartDebugServer(*debug, reg)
		if err != nil {
			return err
		}
		defer srv.Close()
		fmt.Fprintf(os.Stderr, "radiosim: debug server on http://%s/debug/vars\n", srv.Addr)
	}
	scenario := fmt.Sprintf("%v/%s:%s", g, *task, desc.Name)
	start := time.Now()
	tc := obs.NewTrialCollector(reg)
	// Runs without facade sugar — the -trials fan-out and single runs of
	// the other tasks — execute as a one-config plan on the campaign's
	// trial path.
	c := &campaign.Campaign{Workers: *workers, EngineShards: *shards, Obs: reg}
	cfg := campaign.Config{G: g, D: net.Diameter, Spec: campaign.AlgoSpec{Task: desc.Task, Algo: desc.Name}, Fault: faultSpec, Sources: sources}

	runErr := func() error {
		if *trials > 1 {
			if *doTrace {
				return fmt.Errorf("-trace requires a single run (drop -trials)")
			}
			return runTrials(c, cfg, *max, tc, *task, *algo, *seed, *trials)
		}
		faults := faultPlan(net, desc, faultSpec, *seed, sources)
		switch *task {
		case "broadcast":
			var rec *trace.Recorder
			opts := radionet.BroadcastOptions{
				Algorithm:    radionet.Algorithm(*algo),
				Seed:         *seed,
				MaxRounds:    *max,
				Metrics:      reg,
				Faults:       faults,
				EngineShards: *shards,
			}
			if *doTrace {
				rec = &trace.Recorder{}
				opts.Hook = rec.HookFunc()
			}
			res, err := net.Broadcast(*source, *value, opts)
			if err != nil {
				return err
			}
			tc.Record(res.Rounds, time.Since(start), res.Done, 0)
			fmt.Printf("broadcast(%s): done=%v rounds=%d precompute=%d\n",
				*algo, res.Done, res.Rounds, res.PrecomputeRounds)
			if faults != nil {
				fmt.Printf("faults(%s): survivors=%d reach=%d/%d\n",
					faultSpec.Spec, faults.Survivors(), res.Reached, res.ReachTarget)
			}
			if rec != nil {
				if err := rec.Report(os.Stdout); err != nil {
					return err
				}
			}
			if !res.Done {
				return fmt.Errorf("broadcast did not complete within budget")
			}
		case "leader":
			opts := radionet.LeaderOptions{
				Algorithm:    radionet.LeaderAlgorithm(*algo),
				Seed:         *seed,
				MaxRounds:    *max,
				Metrics:      reg,
				Faults:       faults,
				EngineShards: *shards,
			}
			res, err := net.LeaderElection(opts)
			if err != nil {
				return err
			}
			tc.Record(res.Rounds, time.Since(start), res.Done, 0)
			fmt.Printf("leader(%s): done=%v rounds=%d leader=node%d id=%d candidates=%d\n",
				*algo, res.Done, res.Rounds, res.Leader, res.LeaderID, len(res.Candidates))
			if faults != nil {
				fmt.Printf("faults(%s): survivors=%d reach=%d/%d\n",
					faultSpec.Spec, faults.Survivors(), res.Reached, res.ReachTarget)
			}
			if !res.Done {
				return fmt.Errorf("election did not complete within budget")
			}
		default:
			// Any other registered task runs as a one-trial plan.
			out, err := runPlan(c, cfg, *max, tc, *seed)
			if err != nil {
				return err
			}
			res := out[0]
			fmt.Printf("%s(%s): done=%v rounds=%d tx=%d\n", *task, *algo, res.Done, res.Rounds, res.Tx)
			if !res.Done {
				return fmt.Errorf("%s did not complete within budget", *task)
			}
		}
		return nil
	}()
	// The manifest is written even for incomplete runs — a budget-exhausted
	// run is telemetry too.
	if *manifest != "" {
		man := buildManifest(scenario, net.G.N(), net.Diameter, *workers, time.Since(start), reg)
		if err := man.WriteFile(*manifest); err != nil && runErr == nil {
			runErr = err
		}
	}
	return runErr
}

// buildManifest assembles the radiosim run manifest: the one-scenario
// analogue of the campaign manifest, derived from the registry's trial
// metrics so both tools report the same schema.
func buildManifest(scenario string, n, d, workers int, wall time.Duration, reg *obs.Registry) *obs.Manifest {
	man := obs.NewManifest("radiosim")
	sum := sha256.Sum256([]byte(scenario))
	man.ConfigHash = hex.EncodeToString(sum[:])
	man.Generated = time.Now().UTC().Format(time.RFC3339)
	man.Workers = workers
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

// faultPlan realizes fs on the network for one run seeded by seed,
// protecting the descriptor's protected nodes — the broadcast source, a
// leader election's would-be winner — exactly as the campaign does.
// Returns nil for the unfaulted spec; each run needs its own plan (plans
// are single-use).
func faultPlan(net *radionet.Network, desc *protocol.Descriptor, fs campaign.FaultSpec, seed uint64, sources map[int]int64) *radionet.FaultPlan {
	if fs.None() {
		return nil // skip ProtectedNodes: it may resample a candidate set
	}
	return fs.TrialPlan(net.G, seed, desc.ProtectedNodes(net.G.N(), seed, sources)...)
}

// runPlan runs cfg once per seed as one campaign plan on c's executor
// and records each trial into tc. A Build error, identical for every
// trial, is returned as the run's error.
func runPlan(c *campaign.Campaign, cfg campaign.Config, max int64, tc *obs.TrialCollector, seeds ...uint64) ([]campaign.TrialResult, error) {
	plan := &campaign.Plan{Configs: []campaign.Config{cfg}, Max: max}
	for i, seed := range seeds {
		plan.Trials = append(plan.Trials, campaign.Trial{Index: i, Rep: i, Seed: seed})
	}
	results := c.RunPlan(plan)
	for _, res := range results {
		if res.Reason == "error" {
			return nil, errors.New(res.Err)
		}
		tc.Record(res.Rounds, res.Wall, res.Done, res.Budget)
	}
	return results, nil
}

// runTrials is the -trials fan-out mode: n independent runs of the same
// scenario across the campaign worker pool, each with its own RNG stream
// derived from the master seed, reduced to aggregate round statistics.
// Output is identical for every -workers value.
func runTrials(c *campaign.Campaign, cfg campaign.Config, max int64, tc *obs.TrialCollector, task, algo string, seed uint64, trials int) error {
	stream := rng.New(seed).Fork(0x7215)
	seeds := make([]uint64, trials)
	for i := range seeds {
		seeds[i] = stream.Fork(uint64(i)).Uint64()
	}
	results, err := runPlan(c, cfg, max, tc, seeds...)
	if err != nil {
		return err
	}
	var agg stats.Running
	failures := 0
	for _, res := range results {
		agg.Add(float64(res.Rounds))
		if !res.Done {
			failures++
		}
	}
	s := agg.Summary()
	fmt.Printf("%s(%s): trials=%d failures=%d\n", task, algo, trials, failures)
	fmt.Printf("rounds: mean=%.1f std=%.1f p50=%.1f p90=%.1f p99=%.1f max=%.0f\n",
		s.Mean, s.Std, s.P50, s.P90, s.P99, s.Max)
	if failures > 0 {
		return fmt.Errorf("%d/%d trials did not complete within budget", failures, trials)
	}
	return nil
}
