// Command perfbench is the repository benchmark. It drives
// campaign.Campaign.Run — the entry point behind cmd/campaign and
// cmd/experiments — on one pinned workload and checks its outputs.
//
// With -trace 0 it runs the workload's campaigns once, each paired with
// the same campaign run by a frozen copy of the simulator in a second
// process, and prints the end-to-end metrics scaled by the pairs' ratio.
// With -trace 1 it runs the first campaign untraced as the reference,
// then replays the same plan call by call — Matrix.Expand, the topology
// product, the precompute store, NewScratch, then Build and Run for every
// trial on the campaign's worker count — timing each call from outside,
// and prints the per-layer metrics.
//
// The line before the last, starting "env ", is the environment record.
// The last line of standard output is the result: one JSON object with
// the keys correct, attempted, failed and metrics. README.md lists the
// workloads and which end-to-end metric each layer metric should move.
// Run it from the repository root:
//
//	bash perfbench/run.sh --workload cd17_geo --seed 1 --seconds 30 --trace 0
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"
)

// metric is one named figure of the result line.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type metricSet map[string]metric

func (m metricSet) set(name, unit string, v float64) { m[name] = metric{Value: v, Unit: unit} }

// report is the result line.
type report struct {
	Correct   bool      `json:"correct"`
	Attempted int       `json:"attempted"`
	Failed    int       `json:"failed"`
	Metrics   metricSet `json:"metrics"`
}

// environment is printed with every result, so a figure can be traced to
// the machine and the settings that produced it.
type environment struct {
	GoVersion  string `json:"go_version"`
	CPUModel   string `json:"cpu_model"`
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	Workload   string `json:"workload"`
	Seed       uint64 `json:"seed"`
	Traced     bool   `json:"traced"`
	// Workers and Shards are what Campaign.Workers = 0 and
	// Campaign.EngineShards = 0 resolved to.
	Workers int `json:"workers"`
	Shards  int `json:"shards"`
	// SinkSHA256 holds the hash of each campaign's JSONL sink output.
	SinkSHA256 []string `json:"sink_sha256"`
	// Pairing holds an untraced run's figures as measured, before they
	// are scaled against the frozen copy.
	Pairing *pairing `json:"pairing,omitempty"`
}

// pairing is radionet's and the frozen copy's figures over one run.
type pairing struct {
	RoundsPerS       float64 `json:"rounds_per_s"`
	RefRoundsPerS    float64 `json:"ref_rounds_per_s"`
	CPUUSPerRound    float64 `json:"cpu_us_per_round"`
	RefCPUUSPerRound float64 `json:"ref_cpu_us_per_round"`
	SetupS           float64 `json:"setup_s"`
	RefSetupS        float64 `json:"ref_setup_s"`
}

func main() {
	name := flag.String("workload", "", "workload to run: "+strings.Join(workloadNames(), ", "))
	seed := flag.Uint64("seed", 1, "master seed; the same seed gives the same inputs")
	seconds := flag.Float64("seconds", 30, "the time one run may take; the work is fixed, and a run that takes longer says so on standard error")
	trace := flag.Int("trace", 0, "0 prints the end-to-end metrics, 1 the per-layer metrics of a traced replay")
	frozen := flag.Bool("frozen", false, "serve the frozen copy's campaigns to the untraced run that started this process")
	flag.Parse()
	w, ok := findWorkload(*name)
	if !ok || *trace < 0 || *trace > 1 || *seconds <= 0 {
		fmt.Fprintf(os.Stderr, "perfbench: want -workload %s, -trace 0|1 and -seconds > 0\n", strings.Join(workloadNames(), "|"))
		os.Exit(2)
	}
	runtime.GOMAXPROCS(runtime.NumCPU())
	if *frozen {
		if err := serveFrozen(w, os.Stdin, os.Stdout); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench -frozen:", err)
			os.Exit(1)
		}
		return
	}
	env := environment{
		GoVersion:  runtime.Version(),
		CPUModel:   cpuModel(),
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		Workload:   w.Name,
		Seed:       *seed,
		Traced:     *trace == 1,
	}
	var rep report
	var err error
	start := time.Now()
	if env.Traced {
		rep, err = traced(w, *seed, filepath.Join(".bench_build", "trace"), &env)
	} else {
		var ref *childReference
		if ref, err = startChildReference(w); err == nil {
			rep, err = untraced(w, *seed, ref, &env)
			if cerr := ref.close(); err == nil && cerr != nil {
				err = fmt.Errorf("frozen reference: %w", cerr)
			}
		}
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	if el := time.Since(start).Seconds(); el > *seconds {
		fmt.Fprintf(os.Stderr, "perfbench: the run took %.1f s, more than -seconds %g\n", el, *seconds)
	}
	envLine, err := json.Marshal(env)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	repLine, err := json.Marshal(rep)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Printf("env %s\n%s\n", envLine, repLine)
}

// cpuModel returns the first "model name" of /proc/cpuinfo, or "unknown".
func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}
