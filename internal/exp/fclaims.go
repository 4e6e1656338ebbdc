package exp

import (
	"fmt"
	"math"

	"radionet/internal/cluster"
	"radionet/internal/compete"
	"radionet/internal/graph"
	"radionet/internal/protocol"
	"radionet/internal/stats"
)

func init() {
	register("F1", "Broadcast rounds vs D at fixed n (Theorem 5.1 vs prior)", runF1)
	register("F2", "Broadcast rounds vs n at fixed D", runF2)
	register("F3", "Leader election vs prior; LE time ~ broadcast time (Theorem 5.2)", runF3)
	register("F4", "Compete rounds vs |S| (Theorem 4.1 additive term)", runF4)
	register("F5", "Optimality: rounds/D flattens when n = poly(D) (Section 1.4)", runF5)
	register("F6", "Ablations: curtailment, random beta, background processes", runF6)
}

// broadcastAlgo abstracts "run a broadcast of value 9 from node 0 on g".
// run reports the rounds used, total transmissions (energy) and success.
type broadcastAlgo struct {
	name string
	run  func(g *graph.Graph, d int, seed uint64) (rounds, tx int64, done bool)
}

// regAlgo adapts a registered broadcast descriptor to the experiment
// harness: display name from the descriptor label, dispatch through its
// Build, tuning passed through (nil = algorithm defaults). Every
// algorithm runs at its registered whp-sufficient default budget
// (Run(0)); a run that exhausts it is reported not-all-done (F6's
// ablated variants are expected to).
func regAlgo(d *protocol.Descriptor, tuning any) broadcastAlgo {
	const budget = 0
	return broadcastAlgo{name: d.Label, run: func(g *graph.Graph, diam int, seed uint64) (int64, int64, bool) {
		r, err := d.Build(protocol.BuildParams{G: g, D: diam, Seed: seed, Sources: map[int]int64{0: 9}, Tuning: tuning})
		if err != nil {
			return 0, 0, false
		}
		res := r.Run(budget)
		return res.Rounds, res.Tx, res.Done
	}}
}

// namedAlgo resolves a broadcast algorithm by registry name.
func namedAlgo(name string) broadcastAlgo {
	d, ok := protocol.Lookup(protocol.Broadcast, name)
	if !ok {
		panic("exp: unregistered broadcast algorithm " + name)
	}
	return regAlgo(d, nil)
}

// comparableBroadcastAlgos enumerates every registered broadcast
// algorithm in registry order — the baselines-first ordering the
// comparison tables have always used. An algorithm registered tomorrow
// appears in F1 with no exp changes.
func comparableBroadcastAlgos() []broadcastAlgo {
	var out []broadcastAlgo
	for _, d := range protocol.ByTask(protocol.Broadcast) {
		out = append(out, regAlgo(d, nil))
	}
	return out
}

// meanRounds runs algo for the given seeds through the campaign executor
// and returns the mean round count and whether all runs completed.
func meanRounds(o Options, a broadcastAlgo, g *graph.Graph, d int, baseSeed uint64, seeds int) (float64, bool) {
	m, _, ok := meanRoundsTx(o, a, g, d, baseSeed, seeds)
	return m, ok
}

// meanRoundsTx additionally returns the mean transmission count.
func meanRoundsTx(o Options, a broadcastAlgo, g *graph.Graph, d int, baseSeed uint64, seeds int) (float64, float64, bool) {
	rs := make([]float64, seeds)
	txs := make([]float64, seeds)
	ok := make([]bool, seeds)
	o.forEach(seeds, func(s int) {
		r, tx, done := a.run(g, d, baseSeed+uint64(s))
		rs[s], txs[s], ok[s] = float64(r), float64(tx), done
	})
	return stats.Mean(rs), stats.Mean(txs), all(ok)
}

// gridFamily returns n≈const grids with varying diameter.
func gridFamily(quick bool) []*graph.Graph {
	if quick {
		return []*graph.Graph{graph.Grid(16, 16), graph.Grid(8, 32), graph.Grid(4, 64)}
	}
	return []*graph.Graph{
		graph.Grid(32, 32), graph.Grid(16, 64), graph.Grid(8, 128),
		graph.Grid(4, 256), graph.Grid(2, 512),
	}
}

// runF1 is the headline comparison: fixed n, growing D, four algorithms.
func runF1(o Options) *Table {
	t := &Table{
		ID:         "F1",
		Title:      Title("F1"),
		PaperClaim: "O(D log n/log D + polylog) vs BGI O((D+log n)log n), CR/KP O(D log(n/D)+log^2 n), HW16 O(D log n loglog n/log D + polylog)",
		Columns:    []string{"graph", "n", "D", "algo", "rounds", "rounds/D", "allDone"},
	}
	seeds := o.seeds(3)
	if o.Quick && seeds > 2 {
		seeds = 2
	}
	algos := comparableBroadcastAlgos()
	cd17, hw16 := namedAlgo("cd17").name, namedAlgo("hw16").name
	var perHop, logDs []float64 // CD17's completed rows
	below, rows := 0, 0         // rows with CD17 < HW16-mode, of rows where both completed
	for _, g := range gridFamily(o.Quick) {
		d := g.DiameterEstimate()
		mean := map[string]float64{}
		done := map[string]bool{}
		for _, a := range algos {
			m, all := meanRounds(o, a, g, d, o.Seed+1, seeds)
			t.AddRow(g.Name(), g.N(), d, a.name, m, m/float64(d), all)
			mean[a.name], done[a.name] = m, all
		}
		if done[cd17] {
			perHop = append(perHop, mean[cd17]/float64(d))
			logDs = append(logDs, math.Log2(float64(d)))
		}
		if done[cd17] && done[hw16] {
			rows++
			if mean[cd17] < mean[hw16] {
				below++
			}
		}
	}
	t.Note("constants at simulable scale favor the oblivious baselines (see F5 for the n-scaling crossover)")
	slope, ok := 0.0, len(perHop) >= 2
	if ok {
		last := len(perHop) - 1
		slope = (perHop[last] - perHop[0]) / (logDs[last] - logDs[0])
		t.Note("%s: rounds/D from %.1f to %.1f over the sweep (slope %.2f per log2 D)", cd17, perHop[0], perHop[last], slope)
	}
	t.Note("%s", f1Verdict(slope, ok, below, rows))
	return t
}

// f1Verdict judges F1's shape claim at fixed n: Theorem 5.1's
// O(D log n/log D) makes CD17's rounds/D non-increasing in D, and
// CD17's curtailment beats HW16-mode's log log n longer one. slope is
// CD17's rounds/D slope per log2 D (ok is false when CD17 completed
// fewer than two rows); below counts the rows, of the rows where both
// completed, in which CD17 used fewer rounds than HW16-mode.
func f1Verdict(slope float64, ok bool, below, rows int) string {
	switch {
	case !ok || rows == 0:
		return "verdict: inconclusive; CD17 completed fewer than two rows or no row completed for both CD17 and HW16-mode"
	case slope <= 0 && below == rows:
		return fmt.Sprintf("verdict: reproduced; CD17's rounds/D slope %.2f per log2 D does not grow, and CD17 < HW16-mode in %d of %d rows", slope, below, rows)
	default:
		return fmt.Sprintf("verdict: not reproduced at this scale; CD17's rounds/D slope is %.2f per log2 D, and CD17 < HW16-mode in %d of %d rows", slope, below, rows)
	}
}

// runF2 fixes D (caterpillar spine) and grows n via pendant legs.
func runF2(o Options) *Table {
	t := &Table{
		ID:         "F2",
		Title:      Title("F2"),
		PaperClaim: "at fixed D, CD17 grows as log n/log D vs BGI's log n (factor log D)",
		Columns:    []string{"graph", "n", "D", "algo", "rounds", "allDone"},
	}
	seeds := o.seeds(3)
	spine := 64
	legSet := []int{1, 3, 7, 15}
	if o.Quick {
		spine = 32
		legSet = []int{1, 3, 7}
		if seeds > 2 {
			seeds = 2
		}
	}
	algos := []broadcastAlgo{namedAlgo("bgi"), namedAlgo("cd17")}
	for _, legs := range legSet {
		g := graph.Caterpillar(spine, legs)
		d := g.Diameter()
		for _, a := range algos {
			m, all := meanRounds(o, a, g, d, o.Seed+2, seeds)
			t.AddRow(g.Name(), g.N(), d, a.name, m, all)
		}
	}
	t.Note("growing n at fixed D necessarily grows local contention; CD17's schedules pay log(local contention) where BGI pays the oblivious log n (DESIGN.md §3)")
	return t
}

// runF3 compares leader election algorithms and checks the paper's parity
// claim: CD17 leader election runs in the same time as CD17 broadcast.
func runF3(o Options) *Table {
	t := &Table{
		ID:         "F3",
		Title:      Title("F3"),
		PaperClaim: "LE in O(D log n/log D + polylog), first LE asymptotically equal to broadcast; prior: binary-search O(T_BC log n), GH13 O(D log(n/D) min(loglog n, log(n/D)) + polylog)",
		Columns:    []string{"graph", "n", "D", "algo", "rounds", "done"},
	}
	seeds := o.seeds(2)
	gs := gridFamily(o.Quick)
	if len(gs) > 3 {
		gs = gs[:3]
	}
	// Every registered leader algorithm, registry order (baselines first,
	// the paper's algorithm last) — GH13 joined this table by registering
	// itself, with no changes here. Completion requires the descriptor's
	// postcondition check where one is registered.
	leaders := protocol.ByTask(protocol.Leader)
	for _, g := range gs {
		d := g.DiameterEstimate()
		rounds := make([][]float64, len(leaders))
		oks := make([][]bool, len(leaders))
		for i := range leaders {
			rounds[i] = make([]float64, seeds)
			oks[i] = make([]bool, seeds)
		}
		bcr := make([]float64, seeds)
		bcOK := make([]bool, seeds)
		var leMean float64 // CD17-LE mean, for the parity note
		o.forEach(seeds, func(s int) {
			seed := o.Seed + 3 + uint64(s)
			for i, ld := range leaders {
				r, err := ld.Build(protocol.BuildParams{G: g, D: d, Seed: seed})
				if err != nil {
					continue
				}
				res := r.Run(0)
				oks[i][s] = res.Done && (res.Verify == nil || res.Verify() == nil)
				rounds[i][s] = float64(res.Rounds)
			}
			// CD17 broadcast (parity claim).
			if b, err := compete.NewBroadcast(g, d, compete.Config{}, seed, 0, 9); err == nil {
				rb, doneb := b.Run(8 * b.Budget())
				bcOK[s] = doneb
				bcr[s] = float64(rb)
			}
		})
		for i, ld := range leaders {
			m := stats.Mean(rounds[i])
			t.AddRow(g.Name(), g.N(), d, ld.Label, m, all(oks[i]))
			if ld.Name == "cd17" {
				leMean = m
			}
		}
		t.AddRow(g.Name(), g.N(), d, "CD17-broadcast", stats.Mean(bcr), all(bcOK))
		if stats.Mean(bcr) > 0 {
			t.Note("%s: LE/broadcast ratio = %.2f (paper: O(1), the parity claim)", g.Name(), leMean/stats.Mean(bcr))
		}
	}
	return t
}

// runF4 sweeps the source set size of Compete on a fixed graph.
func runF4(o Options) *Table {
	t := &Table{
		ID:         "F4",
		Title:      Title("F4"),
		PaperClaim: "Compete(S) = O(D log n/log D + |S| D^0.125 + polylog n)",
		Columns:    []string{"graph", "|S|", "rounds", "allDone"},
	}
	seeds := o.seeds(3)
	g := graph.Grid(16, 64)
	if o.Quick {
		g = graph.Grid(8, 32)
		if seeds > 2 {
			seeds = 2
		}
	}
	d := g.DiameterEstimate()
	sizes := []int{1, 2, 4, 8, 16, 32}
	var xs, ys []float64
	for _, k := range sizes {
		rs := make([]float64, seeds)
		ok := make([]bool, seeds)
		o.forEach(seeds, func(s int) {
			sources := make(map[int]int64, k)
			for i := 0; i < k; i++ {
				sources[(i*g.N())/k] = int64(100 + i)
			}
			c, err := compete.New(g, d, compete.Config{}, o.Seed+5+uint64(s), sources)
			if err != nil {
				return
			}
			r, done := c.Run(8 * c.Budget())
			ok[s] = done
			rs[s] = float64(r)
		})
		m := stats.Mean(rs)
		t.AddRow(g.Name(), k, m, all(ok))
		xs = append(xs, float64(k))
		ys = append(ys, m)
	}
	if len(xs) >= 2 {
		f := stats.FitPower(xs, ys)
		t.Note("rounds ~ %.0f * |S|^%.2f (r2=%.2f); the paper's additive |S| D^0.125 term predicts weak sublinear growth in |S|", f.Coeff, f.Exp, f.R2)
	}
	return t
}

// runF5 is the optimality reproduction: on paths (n = D+1, i.e. n poly in
// D), CD17's rounds/D should be flat while BGI's grows with log n.
func runF5(o Options) *Table {
	t := &Table{
		ID:         "F5",
		Title:      Title("F5"),
		PaperClaim: "when n = poly(D), running time is O(D): rounds/D = O(1); BGI rounds/D grows as log n",
		Columns:    []string{"n", "D", "algo", "rounds", "rounds/D"},
	}
	seeds := o.seeds(2)
	ns := []int{128, 256, 512, 1024, 2048}
	if o.Quick {
		ns = []int{64, 128, 256, 512}
	}
	algos := []broadcastAlgo{namedAlgo("bgi"), namedAlgo("cd17")}
	perHop := map[string][]float64{}
	logns := map[string][]float64{}
	for _, n := range ns {
		g := graph.Path(n)
		d := n - 1
		for _, a := range algos {
			m, all := meanRounds(o, a, g, d, o.Seed+6, seeds)
			t.AddRow(n, d, a.name, m, m/float64(d))
			if all {
				perHop[a.name] = append(perHop[a.name], m/float64(d))
				logns[a.name] = append(logns[a.name], math.Log2(float64(n)))
			}
		}
	}
	slopes := map[string]float64{}
	for _, a := range algos {
		ph := perHop[a.name]
		if len(ph) >= 2 {
			slope := (ph[len(ph)-1] - ph[0]) / (logns[a.name][len(ph)-1] - logns[a.name][0])
			slopes[a.name] = slope
			t.Note("%s: rounds/D from %.1f to %.1f over the sweep (slope %.2f per log2 n)", a.name, ph[0], ph[len(ph)-1], slope)
		}
	}
	bgi, bgiOK := slopes[algos[0].name]
	cd17, cd17OK := slopes[algos[1].name]
	t.Note("%s", f5Verdict(cd17, bgi, bgiOK && cd17OK))
	return t
}

// f5Verdict judges F5's O(D) claim from the fitted rounds/D slopes per
// log2 n: the claim predicts CD17's rounds/D grows more slowly than BGI's.
// ok is false when either algorithm completed fewer than two sweep points.
func f5Verdict(cd17, bgi float64, ok bool) string {
	switch {
	case !ok:
		return "verdict: inconclusive; BGI or CD17 completed fewer than two sweep points"
	case cd17 < bgi:
		return fmt.Sprintf("verdict: reproduced; CD17's rounds/D slope %.2f per log2 n is below BGI's %.2f, so BGI's rounds/D overtakes CD17's as n grows", cd17, bgi)
	default:
		return fmt.Sprintf("verdict: not reproduced at this scale; CD17's rounds/D slope %.2f per log2 n is not below BGI's %.2f", cd17, bgi)
	}
}

// f6MidJ is the fine exponent F6's "fixed j" ablation pins: the middle of
// the range cd17 draws j from at diameter d under its default fractions.
func f6MidJ(d int) int {
	jmin, jmax := cluster.JRange(d, compete.DefaultFineLoFrac, compete.DefaultFineHiFrac)
	return (jmin + jmax) / 2
}

// runF6 toggles the paper's design choices one at a time (Section 2.3's
// claimed advances).
func runF6(o Options) *Table {
	t := &Table{
		ID:         "F6",
		Title:      Title("F6"),
		PaperClaim: "curtailment via Theorem 2.2 (vs HW16's loglog-longer schedules), random beta per slot, and the background processes are each load-bearing",
		Columns:    []string{"variant", "rounds", "vs default", "allDone"},
	}
	seeds := o.seeds(3)
	g := graph.Grid(8, 128)
	if o.Quick {
		g = graph.Grid(8, 48)
		if seeds > 2 {
			seeds = 2
		}
	}
	d := g.DiameterEstimate()
	jmid := f6MidJ(d)
	variants := []struct {
		name string
		cfg  compete.Config
	}{
		{"default (CD17)", compete.Config{}},
		{"HW16 curtail (loglog n longer)", compete.Config{CurtailLogLog: true}},
		{"no curtailment (full radius)", compete.Config{DisableCurtail: true}},
		{"fixed j (no random beta)", compete.Config{FixedJ: jmid}},
		{"no background process", compete.Config{DisableBackground: true}},
		{"no Algorithm-4 helper", compete.Config{DisableHelper: true}},
	}
	cd17Desc, ok := protocol.Lookup(protocol.Broadcast, "cd17")
	if !ok {
		panic("exp: cd17 not registered")
	}
	var base float64
	for i, v := range variants {
		a := regAlgo(cd17Desc, v.cfg)
		a.name = v.name
		m, all := meanRounds(o, a, g, d, o.Seed+7, seeds)
		if i == 0 {
			base = m
		}
		rel := "1.00x"
		if base > 0 {
			rel = fmt.Sprintf("%.2fx", m/base)
		}
		t.AddRow(v.name, m, rel, all)
	}
	t.Note("runs capped at 8x budget; a variant reported not-all-done hit the cap (the ablated mechanism is load-bearing)")
	return t
}
