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
	"os"
	"strings"
	"time"

	"radionet/internal/exp"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "experiments:", err)
		os.Exit(1)
	}
}

func run() error {
	var (
		runIDs  = flag.String("run", "all", "comma-separated experiment IDs (T1..T8, F1..F7) or 'all'")
		quick   = flag.Bool("quick", false, "small instances (CI scale)")
		seeds   = flag.Int("seeds", 0, "repetitions per configuration (0 = experiment default)")
		seed    = flag.Uint64("seed", 1, "master seed")
		csv     = flag.Bool("csv", false, "emit CSV instead of aligned tables")
		list    = flag.Bool("list", false, "list experiment IDs and exit")
		workers = flag.Int("workers", 0, "worker goroutines for repetition loops (0 = GOMAXPROCS); tables are identical for every value")
	)
	flag.Parse()

	if *list {
		for _, id := range exp.IDs() {
			fmt.Printf("%-4s %s\n", id, exp.Title(id))
		}
		return nil
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
			if err := tbl.CSV(os.Stdout); err != nil {
				return err
			}
			continue
		}
		if err := tbl.Render(os.Stdout); err != nil {
			return err
		}
		fmt.Printf("(%s completed in %v)\n\n", id, time.Since(start).Round(time.Millisecond))
	}
	return nil
}
