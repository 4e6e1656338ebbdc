package exp

import (
	"math"

	"radionet/internal/campaign"
	"radionet/internal/cluster"
	"radionet/internal/decay"
	"radionet/internal/graph"
	"radionet/internal/rng"
	"radionet/internal/stats"
)

func init() {
	register("T1", "Decay informs with constant probability (Lemma 3.1)", runT1)
	register("T2", "Partition strong radius is O(log n/beta) (Lemma 2.1a)", runT2)
	register("T3", "Edge cut probability is O(beta) (Lemma 2.1b)", runT3)
	register("T4", "Distance to cluster center, random j (Theorem 2.2)", runT4)
	register("T5", "Clusters near a node (Lemma 4.3)", runT5)
	register("T6", "Bad subpaths along shortest paths (Lemma 4.4)", runT6)
	register("T7", "Distributed Partition round cost (Lemma 2.1 impl.)", runT7)
}

// runT1 measures the probability that one Decay phase delivers to a
// listener with k participating neighbors, for k across five orders of
// contention. Paper: constant, independent of k (Lemma 3.1).
func runT1(o Options) *Table {
	t := &Table{
		ID:         "T1",
		Title:      Title("T1"),
		PaperClaim: "P[delivery in one Decay phase] >= constant for any #participants",
		Columns:    []string{"participants", "phaseLen", "P[deliver]", "bound 1/(2e)"},
	}
	trials := o.seeds(4000, 800)
	master := rng.New(o.Seed)
	for _, k := range []int{1, 2, 4, 8, 32, 128, 512} {
		l := decay.Levels(k + 1)
		hits := make([]bool, trials)
		campaign.ForEach(o.Workers, trials, func(trial int) {
			r := master.Fork(uint64(k)<<20 | uint64(trial))
			for s := 0; s < l; s++ {
				tx := 0
				for i := 0; i < k; i++ {
					if r.Bernoulli(decay.Prob(s)) {
						tx++
					}
				}
				if tx == 1 {
					hits[trial] = true
					return
				}
			}
		})
		hit := 0
		for _, h := range hits {
			if h {
				hit++
			}
		}
		t.AddRow(k, l, float64(hit)/float64(trials), 1/(2*math.E))
	}
	t.Note("measured on a star: listener with k transmitting neighbors, one Decay phase of ceil(log2(k+1)) steps")
	return t
}

// clusterGraphs returns the T2–T5 topology suite.
func clusterGraphs(o Options, master *rng.Rand) []*graph.Graph {
	if o.Quick {
		return []*graph.Graph{
			graph.Grid(16, 16),
			graph.RandomGeometric(300, 0.09, master.Fork(1)),
		}
	}
	return []*graph.Graph{
		graph.Grid(40, 40),
		graph.RandomGeometric(1500, 0.045, master.Fork(1)),
		graph.Gnp(1200, 0.004, master.Fork(2)),
		graph.PathOfCliques(128, 8),
	}
}

// runT2 sweeps beta and reports the worst strong radius against the
// O(log n/beta) bound.
func runT2(o Options) *Table {
	t := &Table{
		ID:         "T2",
		Title:      Title("T2"),
		PaperClaim: "every cluster has strong diameter O(log n/beta) whp",
		Columns:    []string{"graph", "beta", "maxRadius(mean)", "maxRadius(max)", "ln(n)/beta", "ratio"},
	}
	master := rng.New(o.Seed)
	seeds := o.seeds(10, 0)
	for _, g := range clusterGraphs(o, master) {
		lnN := math.Log(float64(g.N()))
		for _, beta := range []float64{0.05, 0.1, 0.2, 0.4} {
			radii := make([]float64, seeds)
			campaign.ForEach(o.Workers, seeds, func(s int) {
				p := cluster.Partition(g, beta, master.Fork(uint64(s)+100*uint64(beta*1000)))
				radii[s] = float64(p.MaxStrongRadius())
			})
			sum := stats.Summarize(radii)
			bound := lnN / beta
			t.AddRow(g.Name(), beta, sum.Mean, sum.Max, bound, sum.Max/bound)
		}
	}
	t.Note("ratio = measured worst radius / (ln n / beta); Lemma 2.1a predicts an O(1) ratio across the sweep")
	return t
}

// runT3 sweeps beta and reports the edge cut fraction against O(beta).
func runT3(o Options) *Table {
	t := &Table{
		ID:         "T3",
		Title:      Title("T3"),
		PaperClaim: "each edge is cut with probability O(beta)",
		Columns:    []string{"graph", "beta", "cutFraction", "cutFraction/beta"},
	}
	master := rng.New(o.Seed)
	seeds := o.seeds(10, 0)
	for _, g := range clusterGraphs(o, master) {
		for _, beta := range []float64{0.02, 0.05, 0.1, 0.2, 0.4} {
			fr := make([]float64, seeds)
			campaign.ForEach(o.Workers, seeds, func(s int) {
				p := cluster.Partition(g, beta, master.Fork(uint64(s)+100*uint64(beta*1000)))
				fr[s] = p.CutFraction()
			})
			m := stats.Mean(fr)
			t.AddRow(g.Name(), beta, m, m/beta)
		}
	}
	t.Note("Lemma 2.1b predicts cutFraction/beta bounded by a constant across the sweep")
	return t
}

// runT4 is the Theorem 2.2 reproduction: for each j in the fine range,
// the mean distance from a fixed node to its cluster center, against
// c·log n/(beta·log D); the paper claims >= 55% of j values satisfy the
// bound, improving Haeupler–Wajc's extra log log n factor.
func runT4(o Options) *Table {
	t := &Table{
		ID:         "T4",
		Title:      Title("T4"),
		PaperClaim: "P_j[E[dist to center] = O(log n/(beta log D))] >= 0.55 over random j",
		Columns:    []string{"graph", "j", "beta", "E[dist]", "CD17 bound", "ok", "HW16 bound"},
	}
	master := rng.New(o.Seed)
	trials := o.seeds(40, 15)
	gs := []*graph.Graph{graph.Path(512), graph.Grid(16, 64)}
	if o.Quick {
		gs = []*graph.Graph{graph.Path(256)}
	}
	const c = 5.0
	for _, g := range gs {
		d := g.DiameterEstimate()
		logn := math.Log2(float64(g.N()))
		logD := math.Log2(float64(d))
		v := g.N() / 2
		jmin, jmax := cluster.JRange(d)
		good := 0
		for j := jmin; j <= jmax; j++ {
			beta := math.Pow(2, -float64(j))
			ds := make([]float64, trials)
			campaign.ForEach(o.Workers, trials, func(s int) {
				p := cluster.Partition(g, beta, master.Fork(uint64(j)<<16|uint64(s)))
				ds[s] = float64(p.Dist[v])
			})
			mean := stats.Mean(ds)
			bound := c * logn / (beta * logD)
			hw := bound * math.Log2(logn)
			ok := mean <= bound
			if ok {
				good++
			}
			t.AddRow(g.Name(), j, beta, mean, bound, ok, hw)
		}
		frac := float64(good) / float64(jmax-jmin+1)
		t.Note("%s: fraction of good j = %.2f (paper: >= 0.55); c = %.1f", g.Name(), frac, c)
	}
	return t
}

// runT5 compares the empirical probability of seeing >= t clusters within
// distance d of a node with Lemma 4.3's (1-e^{-beta(2d+1)})^{t-1} bound.
func runT5(o Options) *Table {
	t := &Table{
		ID:         "T5",
		Title:      Title("T5"),
		PaperClaim: "P[>= t clusters within distance d] <= (1-e^{-beta(2d+1)})^{t-1}",
		Columns:    []string{"graph", "beta", "d", "t", "P[measured]", "bound"},
	}
	master := rng.New(o.Seed)
	trials := o.seeds(60, 25)
	g := graph.Grid(24, 24)
	if o.Quick {
		g = graph.Grid(14, 14)
	}
	nodes := []int{g.N() / 2, g.N() / 4}
	for _, beta := range []float64{0.05, 0.15} {
		for _, d := range []int{1, 2, 4} {
			bound1 := 1 - math.Exp(-beta*float64(2*d+1))
			for _, tt := range []int{2, 3} {
				perTrial := make([]int, trials)
				campaign.ForEach(o.Workers, trials, func(s int) {
					p := cluster.Partition(g, beta, master.Fork(uint64(s)|uint64(d)<<20|uint64(tt)<<28|uint64(beta*1e4)<<36))
					for _, v := range nodes {
						if p.ClustersWithin(v, d) >= tt {
							perTrial[s]++
						}
					}
				})
				hits, total := 0, trials*len(nodes)
				for _, h := range perTrial {
					hits += h
				}
				t.AddRow(g.Name(), beta, d, tt, float64(hits)/float64(total), math.Pow(bound1, float64(tt-1)))
			}
		}
	}
	t.Note("measured over %d partitions x %d probe nodes per row", trials, len(nodes))
	return t
}

// runT6 counts bad subpaths along canonical shortest paths under the
// coarse clustering, sweeping D, and fits the growth exponent. Lemma 4.4:
// O(D^0.63) with the paper's exponents; the subpath/neighborhood exponents
// are rescaled for simulable D as documented.
func runT6(o Options) *Table {
	t := &Table{
		ID:         "T6",
		Title:      Title("T6"),
		PaperClaim: "all shortest paths have O(D^0.63) bad subpaths whp (paper exponents)",
		Columns:    []string{"D", "n", "subLen", "neigh", "subpaths", "bad(mean)", "bad(max)"},
	}
	master := rng.New(o.Seed)
	seeds := o.seeds(8, 4)
	ks := []int{32, 64, 128, 256}
	if o.Quick {
		ks = []int{16, 32, 64}
	}
	var dims, bads []float64
	for _, k := range ks {
		g := graph.PathOfCliques(k, 4)
		d := 2*k - 1
		subLen := int(math.Ceil(math.Pow(float64(d), 0.25)))
		neigh := int(math.Ceil(math.Pow(float64(d), 0.15)))
		coarseBeta := math.Pow(float64(d), -0.5)
		path := g.ShortestPath(0, g.N()-1)
		nsub := (len(path) + subLen - 1) / subLen
		counts := make([]float64, seeds)
		campaign.ForEach(o.Workers, seeds, func(s int) {
			p := cluster.Partition(g, coarseBeta, master.Fork(uint64(k)<<20|uint64(s)))
			bad := 0
			for i := 0; i < len(path); i += subLen {
				end := i + subLen
				if end > len(path) {
					end = len(path)
				}
				if subpathIsBad(g, p, path[i:end], neigh) {
					bad++
				}
			}
			counts[s] = float64(bad)
		})
		sum := stats.Summarize(counts)
		t.AddRow(d, g.N(), subLen, neigh, nsub, sum.Mean, sum.Max)
		if sum.Mean > 0 {
			dims = append(dims, float64(d))
			bads = append(bads, sum.Mean)
		}
	}
	if len(dims) >= 2 {
		f := stats.FitPower(dims, bads)
		t.Note("fit: bad ~ %.2f * D^%.2f (r2=%.2f); sublinear growth in D reproduces the lemma's shape", f.Coeff, f.Exp, f.R2)
	}
	t.Note("subpath length D^0.25 and neighborhood D^0.15 are the rescaled equivalents of the paper's D^0.12/D^0.11 (DESIGN.md §3)")
	return t
}

// subpathIsBad reports whether any node within distance neigh of the
// subpath sees a different coarse cluster than the rest (the paper's
// "bad subpath": its neighborhood is not contained in one coarse cluster).
func subpathIsBad(g *graph.Graph, p *cluster.Result, sub []int32, neigh int) bool {
	srcs := make([]int, len(sub))
	for i, v := range sub {
		srcs[i] = int(v)
	}
	dist := g.MultiBFS(srcs)
	var center int32 = -1
	for v, dv := range dist {
		if dv == graph.Unreached || int(dv) > neigh {
			continue
		}
		if center == -1 {
			center = p.Center[v]
		} else if p.Center[v] != center {
			return true
		}
	}
	return false
}

// runT7 runs the distributed Partition protocol and reports rounds against
// the O(log^3 n/beta) bound of Lemma 2.1, validating the result structure.
func runT7(o Options) *Table {
	t := &Table{
		ID:         "T7",
		Title:      Title("T7"),
		PaperClaim: "Partition(beta) implementable in radio networks in O(log^3 n/beta) rounds",
		Columns:    []string{"graph", "beta", "rounds", "log^3(n)/beta", "ratio", "valid"},
	}
	master := rng.New(o.Seed)
	seeds := o.seeds(3, 0)
	gs := []*graph.Graph{graph.Grid(12, 12), graph.PathOfCliques(12, 6)}
	if !o.Quick {
		gs = append(gs, graph.Grid(24, 24), graph.RandomGeometric(500, 0.08, master.Fork(3)))
	}
	for _, g := range gs {
		logn := math.Log2(float64(g.N()))
		for _, beta := range []float64{0.15, 0.3} {
			rounds := make([]float64, seeds)
			ok := make([]bool, seeds)
			cfg := len(t.Rows) // one row per (graph, beta) cell
			campaign.ForEach(o.Workers, seeds, func(s int) {
				dp := cluster.NewDistributed(g, beta, o.trialSeed("T7", cfg, s))
				res := dp.Run(0)
				ok[s] = res.Done && dp.Result().Validate() == nil
				rounds[s] = float64(res.Rounds)
			})
			bound := logn * logn * logn / beta
			m := stats.Mean(rounds)
			t.AddRow(g.Name(), beta, m, bound, m/bound, all(ok))
		}
	}
	t.Note("ratio should stay O(1) across graphs and beta; valid = partition invariants hold")
	return t
}
