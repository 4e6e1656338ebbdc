// Package exp is the experiment harness that regenerates every evaluation
// artifact of the reproduction. The paper has no measured tables or
// figures (it is a theory paper), so each theorem/lemma bound and each
// comparison claim of Sections 1.3–1.4 is treated as one artifact; the
// per-experiment index lives in DESIGN.md §6 and results are recorded in
// EXPERIMENTS.md.
//
// Every experiment is a Runner keyed by its ID (T1…T8, F1…F6) returning a
// Table. The comparison tables F1–F6 run their protocols as campaign
// plans (runCells), so one executor serves them and cmd/campaign; the
// structural tables T1–T8 fan their repetitions out with campaign.ForEach.
// cmd/experiments renders the tables from the command line and
// bench_test.go wraps each in a testing.B benchmark.
package exp

import (
	"fmt"
	"io"
	"sort"
	"strings"

	"radionet/internal/campaign"
	"radionet/internal/graph"
	"radionet/internal/precompute"
	"radionet/internal/protocol"
	"radionet/internal/rng"
	"radionet/internal/stats"
)

// Options control experiment scale and reproducibility.
type Options struct {
	// Seed is the master seed; every run with equal Options is identical.
	Seed uint64
	// Seeds is the number of independent repetitions per configuration
	// (0 means the experiment's default, which Quick may cap).
	Seeds int
	// Quick shrinks instance sizes for CI/benchmark runs; full scale is
	// used by cmd/experiments for EXPERIMENTS.md.
	Quick bool
	// Workers sizes the worker pool for repetition loops and table plans
	// (0 = GOMAXPROCS, 1 = serial). Results are identical for every
	// value: each repetition derives its randomness from its index.
	Workers int
}

// seeds returns the repetitions per configuration: Seeds when set, else
// def, capped at quickMax (when positive) on quick runs. An explicit
// Seeds is never capped.
func (o Options) seeds(def, quickMax int) int {
	if o.Seeds > 0 {
		return o.Seeds
	}
	if o.Quick && quickMax > 0 && def > quickMax {
		return quickMax
	}
	return def
}

// broadcast resolves a broadcast algorithm the tables name; an
// unregistered name is a programming error.
func broadcast(name string) *protocol.Descriptor {
	d, ok := protocol.Lookup(protocol.Broadcast, name)
	if !ok {
		panic("exp: unregistered broadcast algorithm " + name)
	}
	return d
}

// cell is one table configuration: the registered algorithm desc on g at
// diameter d, with the algorithm's default tuning and trial sources.
func cell(g *graph.Graph, d int, desc *protocol.Descriptor) campaign.Config {
	return campaign.Config{G: g, D: d, Spec: campaign.AlgoSpec{Task: desc.Task, Algo: desc.Name}}
}

// cross returns a cell for every descriptor on every graph, graph-major
// (the tables' row order), each graph at the diameter diam reports.
func cross(gs []*graph.Graph, diam func(*graph.Graph) int, descs []*protocol.Descriptor) []campaign.Config {
	var cells []campaign.Config
	for _, g := range gs {
		d := diam(g)
		for _, desc := range descs {
			cells = append(cells, cell(g, d, desc))
		}
	}
	return cells
}

// trialSeed is the seed of repetition rep of cell cfg in table id:
// campaign.TrialSeed under a master forked from Seed by the table ID, so
// no two tables, cells or repetitions share a trial.
func (o Options) trialSeed(id string, cfg, rep int) uint64 {
	var key uint64
	for i := 0; i < len(id); i++ {
		key = key<<8 | uint64(id[i])
	}
	return campaign.TrialSeed(rng.New(o.Seed).Fork(key).Uint64(), cfg, rep)
}

// runCells runs seeds trials of every cell of table id as one campaign
// plan and returns each cell's trial records in repetition order,
// repetition s of cell c seeded trialSeed(id, c, s). Cells on one graph
// share a topology key, and with it their scratch. Results are identical
// for every worker count.
func (o Options) runCells(id string, cells []campaign.Config, seeds int) [][]campaign.TrialResult {
	plan := &campaign.Plan{Configs: cells}
	keys := make(map[*graph.Graph]precompute.Key)
	for ci := range cells {
		g := cells[ci].G
		if _, ok := keys[g]; !ok {
			keys[g] = precompute.Key{Spec: g.Name(), Seed: uint64(len(keys))}
		}
		cells[ci].Key = keys[g]
		for s := 0; s < seeds; s++ {
			plan.Trials = append(plan.Trials, campaign.Trial{Index: len(plan.Trials), Cfg: ci, Rep: s, Seed: o.trialSeed(id, ci, s)})
		}
	}
	res := (&campaign.Campaign{Workers: o.Workers}).RunPlan(plan)
	out := make([][]campaign.TrialResult, len(cells))
	for ci := range out {
		out[ci] = res[ci*seeds : (ci+1)*seeds]
	}
	return out
}

// meanOf reduces one cell's trial records to its mean rounds and
// transmissions, and whether every trial completed (with a verified
// postcondition where the algorithm registers a check).
func meanOf(rs []campaign.TrialResult) (rounds, tx float64, done bool) {
	r := make([]float64, len(rs))
	x := make([]float64, len(rs))
	done = true
	for i, t := range rs {
		r[i], x[i] = float64(t.Rounds), float64(t.Tx)
		done = done && t.Done
	}
	return stats.Mean(r), stats.Mean(x), done
}

// all reports whether every flag is set; repetition loops record per-index
// success and reduce after the fan-out.
func all(bs []bool) bool {
	for _, b := range bs {
		if !b {
			return false
		}
	}
	return true
}

// Table is a rendered experiment artifact.
type Table struct {
	ID         string
	Title      string
	PaperClaim string
	Columns    []string
	Rows       [][]string
	Notes      []string
}

// AddRow appends a formatted row; values are rendered with %v.
func (t *Table) AddRow(vals ...any) {
	row := make([]string, len(vals))
	for i, v := range vals {
		switch x := v.(type) {
		case float64:
			row[i] = fmt.Sprintf("%.3g", x)
		default:
			row[i] = fmt.Sprintf("%v", v)
		}
	}
	t.Rows = append(t.Rows, row)
}

// Note appends an explanatory footnote.
func (t *Table) Note(format string, args ...any) {
	t.Notes = append(t.Notes, fmt.Sprintf(format, args...))
}

// Render writes the table as aligned text.
func (t *Table) Render(w io.Writer) error {
	widths := make([]int, len(t.Columns))
	for i, c := range t.Columns {
		widths[i] = len(c)
	}
	for _, r := range t.Rows {
		for i, v := range r {
			if i < len(widths) && len(v) > widths[i] {
				widths[i] = len(v)
			}
		}
	}
	var b strings.Builder
	fmt.Fprintf(&b, "== %s: %s ==\n", t.ID, t.Title)
	fmt.Fprintf(&b, "paper: %s\n", t.PaperClaim)
	for i, c := range t.Columns {
		fmt.Fprintf(&b, "%-*s  ", widths[i], c)
	}
	b.WriteByte('\n')
	for i := range t.Columns {
		b.WriteString(strings.Repeat("-", widths[i]))
		b.WriteString("  ")
		_ = i
	}
	b.WriteByte('\n')
	for _, r := range t.Rows {
		for i, v := range r {
			fmt.Fprintf(&b, "%-*s  ", widths[i], v)
		}
		b.WriteByte('\n')
	}
	for _, n := range t.Notes {
		fmt.Fprintf(&b, "note: %s\n", n)
	}
	b.WriteByte('\n')
	_, err := io.WriteString(w, b.String())
	return err
}

// CSV writes the table as comma-separated values (no notes).
func (t *Table) CSV(w io.Writer) error {
	var b strings.Builder
	b.WriteString(strings.Join(t.Columns, ","))
	b.WriteByte('\n')
	for _, r := range t.Rows {
		b.WriteString(strings.Join(r, ","))
		b.WriteByte('\n')
	}
	_, err := io.WriteString(w, b.String())
	return err
}

// Runner produces one experiment artifact.
type Runner func(Options) *Table

var registry = map[string]struct {
	title  string
	runner Runner
}{}

func register(id, title string, r Runner) {
	registry[id] = struct {
		title  string
		runner Runner
	}{title, r}
}

// IDs returns all registered experiment IDs in index order.
func IDs() []string {
	ids := make([]string, 0, len(registry))
	for id := range registry {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool {
		// T before F, then numeric.
		if ids[i][0] != ids[j][0] {
			return ids[i][0] > ids[j][0] // 'T' > 'F'
		}
		if len(ids[i]) != len(ids[j]) {
			return len(ids[i]) < len(ids[j])
		}
		return ids[i] < ids[j]
	})
	return ids
}

// Title returns the registered title for id ("" if unknown).
func Title(id string) string { return registry[id].title }

// Run executes the experiment with the given ID.
func Run(id string, o Options) (*Table, error) {
	e, ok := registry[id]
	if !ok {
		return nil, fmt.Errorf("exp: unknown experiment %q (known: %s)", id, strings.Join(IDs(), " "))
	}
	return e.runner(o), nil
}
