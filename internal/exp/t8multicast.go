package exp

import (
	"radionet/internal/campaign"
	"radionet/internal/graph"
	"radionet/internal/multicast"
	"radionet/internal/stats"
)

func init() {
	register("T8", "k-message broadcast pipelining (Lemma 2.3)", runT8)
}

// runT8 measures k-message broadcast: the pipelined epidemic vs the
// classical k-sequential-broadcasts reduction, sweeping k. Lemma 2.3's
// schedule primitive claims O(D + k·log n + log⁶n) — additive in k —
// versus the reduction's multiplicative k·T_BC.
func runT8(o Options) *Table {
	t := &Table{
		ID:         "T8",
		Title:      Title("T8"),
		PaperClaim: "k messages in O(D + k log n + log^6 n) (additive in k) vs k*T_BC sequential",
		Columns:    []string{"graph", "k", "pipelined", "sequential", "speedup", "allDone"},
	}
	seeds := o.seeds(3, 2)
	g := graph.Grid(8, 32)
	ks := []int{1, 2, 4, 8, 16, 32}
	if o.Quick {
		g = graph.Grid(6, 12)
		ks = []int{1, 4, 16}
	}
	d := g.DiameterEstimate()
	msgs := func(k int) []int64 {
		out := make([]int64, k)
		for i := range out {
			out[i] = int64(100 + i)
		}
		return out
	}
	var xs, ys []float64
	for ki, k := range ks {
		pr := make([]float64, seeds)
		sr := make([]float64, seeds)
		ok := make([]bool, seeds)
		campaign.ForEach(o.Workers, seeds, func(s int) {
			// One trial runs both strategies, from one seed.
			seed := o.trialSeed("T8", ki, s)
			p, err := multicast.NewPipelined(g, d, seed, 0, msgs(k))
			if err != nil {
				return
			}
			pipe := p.Run(1 << 26)
			seq := multicast.Sequential(g, seed, 0, msgs(k), 0)
			pr[s], sr[s] = float64(pipe.Rounds), float64(seq.Rounds)
			ok[s] = pipe.Done && seq.Done
		})
		pm, sm := stats.Mean(pr), stats.Mean(sr)
		speedup := 0.0
		if pm > 0 {
			speedup = sm / pm
		}
		t.AddRow(g.Name(), k, pm, sm, speedup, all(ok))
		xs = append(xs, float64(k))
		ys = append(ys, pm)
	}
	if len(xs) >= 2 {
		f := stats.FitPower(xs, ys)
		t.Note("pipelined rounds ~ %.0f * k^%.2f (r2=%.2f): sublinear/additive in k, vs the reduction's k^1 growth", f.Coeff, f.Exp, f.R2)
	}
	return t
}
