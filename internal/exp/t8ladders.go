package exp

import (
	"fmt"
	"math"

	"radionet/internal/campaign"
	"radionet/internal/cluster"
	"radionet/internal/compete"
	"radionet/internal/graph"
	"radionet/internal/radio"
	"radionet/internal/rng"
	"radionet/internal/schedule"
)

func init() {
	register("T8", "Lemma 2.3 ladders as cd17 runs them", runT8)
}

// runT8 measures the intra-cluster schedule contract cd17 takes from
// Lemma 2.3: on each fine clustering cd17 draws (β = 2^-j, j over
// cluster.JRange(D)), with the Decay ladders of internal/schedule, a
// message crosses a cluster to or from its center within the ICP
// sub-phase compete budgets for that distance. Every cluster floods at
// once on one engine, so collisions between clusters are physical. A
// flood covers the clustering's strong radius r, and its budget is
// compete.SubPhaseRounds(r, L) for the longest ladder L, the sub-phase
// compete gives a clustering it does not curtail.
func runT8(o Options) *Table {
	t := &Table{
		ID:         "T8",
		Title:      Title("T8"),
		PaperClaim: "after precomputation, a message moves distance l to or from the cluster center in O(l + polylog n) rounds; cd17 gives each such flood one ICP sub-phase of hopSlack*l + tailSweeps ladder sweeps",
		Columns:    []string{"graph", "j", "radius", "ladder", "out sweeps/hop", "in sweeps/hop", "budget sweeps/hop", "within budget"},
	}
	seeds := o.seeds(5, 2)
	master := rng.New(o.Seed)
	gs := []*graph.Graph{graph.Grid(16, 64), graph.PathOfCliques(32, 8), graph.RandomGeometric(1000, 0.06, master.Fork(1))}
	if o.Quick {
		gs = []*graph.Graph{graph.Grid(8, 16), graph.PathOfCliques(12, 6)}
	}
	within, floods := 0, 0
	worst := 0.0
	for _, g := range gs {
		jmin, jmax := cluster.JRange(g.DiameterEstimate())
		for j := jmin; j <= jmax; j++ {
			cfg := len(t.Rows) // one row per (graph, j) cell
			rs := make([]t8Trial, seeds)
			campaign.ForEach(o.Workers, seeds, func(s int) {
				seed := o.trialSeed("T8", cfg, s)
				r := rng.New(seed)
				part := cluster.Partition(g, math.Pow(2, -float64(j)), r.Fork(1))
				rs[s] = runT8Trial(g, part, schedule.BuildScratch(g, part, nil), r)
			})
			var radius, ladder, out, in, budget float64 // sums over the seeds
			ok := 0
			for _, tr := range rs {
				sweepHops := float64(tr.ladder * max(tr.radius, 1)) // rounds of one sweep per hop
				radius += float64(tr.radius)
				ladder += float64(tr.ladder)
				out += float64(tr.out) / sweepHops
				in += float64(tr.in) / sweepHops
				budget += float64(tr.budget) / sweepHops
				for _, r := range []int64{tr.out, tr.in} {
					if r <= tr.budget {
						ok++
					}
					worst = max(worst, float64(r)/float64(tr.budget))
				}
			}
			within += ok
			floods += 2 * seeds
			k := float64(seeds)
			t.AddRow(g.Name(), j, radius/k, ladder/k, out/k, in/k, budget/k, fmt.Sprintf("%d/%d", ok, 2*seeds))
		}
	}
	t.Note("a sweep is one pass of the clustering's longest ladder; radius and ladder are means over %d partitions per row, each flooded out and in", seeds)
	t.Note("%s", t8Verdict(within, floods, worst))
	return t
}

// t8Trial is one clustering's two floods: the strong radius r, the
// longest ladder L, the rounds each flood took (capped at t8Cap budgets
// when it did not finish) and the budget compete.SubPhaseRounds(r, L).
type t8Trial struct {
	radius, ladder  int
	out, in, budget int64
}

// t8Cap bounds a flood at this many budgets, so a flood that overruns
// still reports how far it got.
const t8Cap = 8

// runT8Trial floods part outward (each center's value to its members)
// and inward (each cluster's farthest member's value to its center),
// each on a fresh engine with coins forked from r.
func runT8Trial(g *graph.Graph, part *cluster.Result, sch *schedule.Schedule, r *rng.Rand) t8Trial {
	tr := t8Trial{radius: part.MaxStrongRadius(), ladder: sch.MaxLevel}
	tr.budget = compete.SubPhaseRounds(int32(tr.radius), tr.ladder)
	flood := func(inward bool, key uint64) int64 {
		f := newLadderFlood(part, sch, key, inward)
		rounds, _ := radio.NewEngine(g, f).RunUntil(t8Cap*tr.budget, &f.prog)
		return rounds
	}
	tr.out = flood(false, r.Fork(2).Uint64())
	tr.in = flood(true, r.Fork(3).Uint64())
	return tr
}

// t8Verdict judges T8's claim: every flood, within floods in total,
// reached its cluster within compete's sub-phase budget. worst is the
// largest fraction of its budget any flood used.
func t8Verdict(within, floods int, worst float64) string {
	switch {
	case floods == 0:
		return "verdict: inconclusive; no flood ran"
	case within == floods:
		return fmt.Sprintf("verdict: reproduced; all %d floods finished within compete's sub-phase budget (worst used %.2f of it)", floods, worst)
	default:
		return fmt.Sprintf("verdict: not reproduced at this scale; %d of %d floods overran compete's sub-phase budget (worst used %.2f of it)", floods-within, floods, worst)
	}
}

// ladderFlood is one intra-cluster flood the way cd17's ICP sub-phases
// run it, as a radio.Protocol: every node holding its cluster's value
// sweeps its cluster's ladder, transmitting at step t mod L(C) with
// probability 2^-(step+1) on rng.WordCoins, and sends the value with its
// center. A listener adopts a message only from its own cluster: one
// whose center is its own.
type ladderFlood struct {
	center []int32
	levels []int32
	coins  uint64
	top    int     // the longest ladder: the coin steps a word may need
	val    []int64 // the value each node holds, -1 for none
	// inward counts only centers toward prog; outward counts every node.
	inward bool
	prog   radio.Progress
}

// newLadderFlood starts a flood on part with schedule sch. Outward, each
// center holds its own id; inward, each cluster's farthest member (the
// lowest id among ties) holds its own id.
func newLadderFlood(part *cluster.Result, sch *schedule.Schedule, coins uint64, inward bool) *ladderFlood {
	n := len(part.Center)
	f := &ladderFlood{center: part.Center, levels: sch.Levels, coins: coins, top: sch.MaxLevel, val: make([]int64, n), inward: inward}
	target := int64(n)
	if inward {
		target = int64(part.NumClusters())
	}
	f.prog = *radio.NewProgress(target)
	src := make([]int32, n) // per center: the node that starts its flood
	for v := range src {
		f.val[v], src[v] = -1, -1
	}
	for v, c := range part.Center {
		if s := src[c]; !inward {
			src[c] = c
		} else if s < 0 || part.Dist[v] > part.Dist[s] {
			src[c] = int32(v)
		}
	}
	for _, s := range src {
		if s >= 0 {
			f.hold(s, int64(s))
		}
	}
	return f
}

// hold gives v the value a and counts it toward completion.
func (f *ladderFlood) hold(v int32, a int64) {
	f.val[v] = a
	if !f.inward || f.center[v] == v {
		f.prog.Add(1)
	}
}

// ActBulk implements radio.Protocol.
func (f *ladderFlood) ActBulk(t int64, tx []int32, msgs []radio.Message) ([]int32, []radio.Message) {
	coins := rng.NewWordCoins(f.coins, t)
	var buf [64]uint64 // a ladder is at most 33 steps for int32 node ids
	p := buf[:f.top]
	for w := 0; w<<6 < len(f.val); w++ {
		coins.Fill(w, p)
		for v := w << 6; v < min(len(f.val), w<<6+64); v++ {
			if f.val[v] >= 0 && p[t%int64(f.levels[v])]>>(v&63)&1 != 0 {
				tx = append(tx, int32(v))
				msgs = append(msgs, radio.Message{Kind: compete.KindICP, A: f.val[v], B: int64(f.center[v])})
			}
		}
	}
	return tx, msgs
}

// RecvBulk implements radio.Protocol.
func (f *ladderFlood) RecvBulk(_ int64, listeners, msgIdx []int32, msgs []radio.Message) {
	for k, v := range listeners {
		if m := &msgs[msgIdx[k]]; f.val[v] < 0 && m.B == int64(f.center[v]) {
			f.hold(v, m.A)
		}
	}
}
