// Command experiments regenerates the evaluation artifacts of the
// reproduction (DESIGN.md §6): one table per theorem/lemma/comparison
// claim of the paper, printed as aligned text or CSV.
//
// Examples:
//
//	experiments                 # run everything at full scale
//	experiments -run F1,F5      # selected experiments
//	experiments -quick          # CI-scale instances
//	experiments -csv -run T2    # machine-readable output
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"
	"time"

	"radionet/internal/exp"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "experiments:", err)
		os.Exit(1)
	}
}

// run is the whole command: it parses args on its own flag set and writes
// the tables to stdout.
func run(args []string, stdout io.Writer) error {
	flags := flag.NewFlagSet("experiments", flag.ExitOnError)
	var (
		runIDs  = flags.String("run", "all", "comma-separated experiment IDs (T1..T8, F1..F7) or 'all'")
		quick   = flags.Bool("quick", false, "small instances (CI scale); caps the default repetitions, not an explicit -seeds")
		seeds   = flags.Int("seeds", 0, "repetitions per configuration (0 = experiment default)")
		seed    = flags.Uint64("seed", 1, "master seed")
		csv     = flags.Bool("csv", false, "emit CSV instead of aligned tables")
		list    = flags.Bool("list", false, "list experiment IDs and exit")
		workers = flags.Int("workers", 0, "worker goroutines for repetition loops (0 = GOMAXPROCS); tables are identical for every value")
	)
	if err := flags.Parse(args); err != nil {
		return err
	}

	if *list {
		for _, id := range exp.IDs() {
			fmt.Fprintf(stdout, "%-4s %s\n", id, exp.Title(id))
		}
		return nil
	}
	if *seeds < 0 {
		return fmt.Errorf("-seeds must be >= 0, got %d", *seeds)
	}

	var ids []string
	if *runIDs == "all" {
		ids = exp.IDs()
	} else {
		for _, id := range strings.Split(*runIDs, ",") {
			ids = append(ids, strings.TrimSpace(id))
		}
	}
	opts := exp.Options{Seed: *seed, Seeds: *seeds, Quick: *quick, Workers: *workers}
	for _, id := range ids {
		start := time.Now()
		tbl, err := exp.Run(id, opts)
		if err != nil {
			return err
		}
		if *csv {
			if err := tbl.CSV(stdout); err != nil {
				return err
			}
			continue
		}
		if err := tbl.Render(stdout); err != nil {
			return err
		}
		fmt.Fprintf(stdout, "(%s completed in %v)\n\n", id, time.Since(start).Round(time.Millisecond))
	}
	return nil
}
