// Command campaign runs a parallel simulation campaign: a declarative
// matrix of (topology × algorithm × seed) trials fanned out across a
// worker pool, with per-configuration aggregates streamed to a sink.
//
// The same master seed yields byte-identical text/CSV/JSONL output for
// every -workers value; add -timings for (non-deterministic) wall-time
// columns.
//
// Examples:
//
//	campaign -topos grid:16x16,cliquepath:16x8,gnp:256:0.03 \
//	         -algos cd17,bgi -seeds 20
//	campaign -task leader -algos cd17,max-broadcast -topos grid:8x32 -seeds 10
//	campaign -algos broadcast:cd17,leader:cd17 -topos path:256 -seeds 5 -format jsonl
//	campaign -config matrix.json -workers 4 -format csv
//	campaign -preset large-n-broadcast -seeds 5
//	campaign -preset large-n-broadcast -cpuprofile cpu.prof -memprofile mem.prof
//	campaign -preset faults -format jsonl
//	campaign -topos grid:16x16 -algos cd17,bgi \
//	         -faults none,crash:0.3@50,jam:0.05:p0.2,loss:0.1 -seeds 10
//	campaign -preset large-n-broadcast -progress -manifest run.json
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/pprof"
	"strings"
	"time"

	"radionet/internal/campaign"
	"radionet/internal/obs"
	"radionet/internal/precompute"
	"radionet/internal/protocol"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, errLine(err))
		os.Exit(1)
	}
}

// errLine is the stderr line for a failed run: the error behind one
// "campaign: " prefix, which errors from package campaign already carry.
func errLine(err error) string {
	return "campaign: " + strings.TrimPrefix(err.Error(), "campaign: ")
}

// run is the whole command: it parses args on its own flag set and writes
// the sink stream to stdout (diagnostics go to stderr).
func run(args []string, stdout io.Writer) error {
	flags := flag.NewFlagSet("campaign", flag.ExitOnError)
	var (
		topos    = flags.String("topos", "", "comma-separated topology specs, e.g. grid:16x16,path:256,gnp:400:0.01")
		task     = flags.String("task", "broadcast", "default task for unqualified -algos entries: any registered task (see -list)")
		algos    = flags.String("algos", "", "comma-separated algorithms, optionally task-qualified, e.g. cd17,bgi or leader:cd17")
		faults   = flags.String("faults", "", "comma-separated fault specs crossed with every cell, e.g. none,crash:0.3@50,jam:0.05:p0.2,loss:0.1 ('+'-join terms to compose)")
		seeds    = flags.Int("seeds", 10, "independent trials per configuration")
		seed     = flags.Uint64("seed", 1, "master seed")
		workers  = flags.Int("workers", 0, "worker goroutines (0 = GOMAXPROCS)")
		shards   = flags.Int("shards", 0, "intra-round engine shards per trial (0 = auto-split spare cores on large graphs, 1 = off; output is byte-identical at any value)")
		cacheDir = flags.String("cache-dir", "", "precompute disk-cache directory (empty = off; output is byte-identical with the cache off, cold or warm)")
		maxR     = flags.Int64("maxrounds", 0, "per-trial round budget (0 = algorithm default)")
		format   = flags.String("format", "text", "output format: text|csv|jsonl")
		timings  = flags.Bool("timings", false, "include wall-time aggregates (non-deterministic)")
		config   = flags.String("config", "", "JSON matrix file (flags override its seeds/master_seed/max_rounds when set)")
		preset   = flags.String("preset", "", "built-in matrix preset: "+strings.Join(campaign.PresetNames(), "|")+" (flags override as with -config)")
		cpuprof  = flags.String("cpuprofile", "", "write a CPU profile of the campaign to this file")
		memprof  = flags.String("memprofile", "", "write a heap profile (post-GC, at exit) to this file")
		progress = flags.Bool("progress", false, "stream a live progress line (trials done/total, ETA, current config) to stderr")
		manifest = flags.String("manifest", "", "write a machine-readable run manifest (JSON: config hash, protocols, per-config wall times, metrics) to this file")
		list     = flags.Bool("list", false, "print the registered algorithm table (task, name, aliases, capabilities) and exit")
	)
	if err := flags.Parse(args); err != nil {
		return err
	}

	if *list {
		fmt.Fprint(stdout, protocol.MarkdownTable())
		return nil
	}
	if *preset != "" && *config != "" {
		return fmt.Errorf("-preset and -config are mutually exclusive")
	}
	if *workers < 0 {
		return fmt.Errorf("-workers must be >= 0, got %d", *workers)
	}
	if *shards < 0 {
		return fmt.Errorf("-shards must be >= 0, got %d", *shards)
	}
	m := campaign.Matrix{Seeds: *seeds, MasterSeed: *seed, MaxRounds: *maxR}
	if *preset != "" {
		loaded, err := campaign.Preset(*preset)
		if err != nil {
			return err
		}
		m = loaded
	}
	if *config != "" {
		f, err := os.Open(*config)
		if err != nil {
			return err
		}
		loaded, err := campaign.LoadMatrix(f)
		f.Close()
		if err != nil {
			return err
		}
		m = loaded
	}
	if *preset != "" || *config != "" {
		// Flags given explicitly on the command line win over the
		// preset's or the file's values.
		flags.Visit(func(fl *flag.Flag) {
			switch fl.Name {
			case "seeds":
				m.Seeds = *seeds
			case "seed":
				m.MasterSeed = *seed
			case "maxrounds":
				m.MaxRounds = *maxR
			}
		})
	}
	if *topos != "" {
		m.Topologies = splitList(*topos)
	}
	if *faults != "" {
		m.Faults = splitList(*faults)
	}
	if *algos != "" {
		specs, err := parseAlgos(*algos, campaign.Task(*task))
		if err != nil {
			return err
		}
		m.Algorithms = specs
	}
	if len(m.Topologies) == 0 || len(m.Algorithms) == 0 {
		return fmt.Errorf("no matrix: provide -topos and -algos, or -config (see -h)")
	}

	sink, err := campaign.NewSink(*format, stdout, m.SinkSchema(*timings))
	if err != nil {
		return err
	}
	// Profiling starts only after every usage error has had its chance, so
	// a bad invocation never truncates an existing profile file.
	if *cpuprof != "" {
		f, err := os.Create(*cpuprof)
		if err != nil {
			return err
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			return err
		}
		defer pprof.StopCPUProfile()
	}
	if *memprof != "" {
		defer func() {
			f, err := os.Create(*memprof)
			if err != nil {
				fmt.Fprintln(os.Stderr, "campaign: memprofile:", err)
				return
			}
			defer f.Close()
			runtime.GC() // settle allocations so the heap profile is live data
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintln(os.Stderr, "campaign: memprofile:", err)
			}
		}()
	}
	c := campaign.Campaign{Matrix: m, Workers: *workers, Timings: *timings, EngineShards: *shards}
	if *cacheDir != "" {
		c.Cache = precompute.NewStore(*cacheDir)
	}
	// The telemetry surface: all of it observes the run without touching
	// the sink stream, so stdout stays byte-identical with or without it.
	var st campaign.RunStats
	if *manifest != "" {
		c.Obs = obs.NewRegistry()
		c.Stats = &st
	}
	if *progress {
		c.Progress = os.Stderr
	}
	if _, err = c.Run(sink); err != nil {
		return err
	}
	if *manifest != "" {
		man := c.Manifest("campaign", &st)
		man.Generated = time.Now().UTC().Format(time.RFC3339)
		if err := man.WriteFile(*manifest); err != nil {
			return err
		}
	}
	return nil
}

func splitList(s string) []string {
	var out []string
	for _, v := range strings.Split(s, ",") {
		if v = strings.TrimSpace(v); v != "" {
			out = append(out, v)
		}
	}
	return out
}

// parseAlgos parses "cd17,bgi" (using the default task) or task-qualified
// entries like "leader:cd17" / "partition:mpx". Tasks are whatever
// the protocol registry knows (see -list), not a hardcoded pair.
func parseAlgos(s string, def campaign.Task) ([]campaign.AlgoSpec, error) {
	var specs []campaign.AlgoSpec
	for _, entry := range splitList(s) {
		spec := campaign.AlgoSpec{Task: def, Algo: entry}
		if t, a, ok := strings.Cut(entry, ":"); ok {
			if !protocol.KnownTask(protocol.Task(t)) {
				return nil, fmt.Errorf("algorithm %q: unknown task %q", entry, t)
			}
			spec = campaign.AlgoSpec{Task: campaign.Task(t), Algo: a}
		}
		specs = append(specs, spec)
	}
	return specs, nil
}
