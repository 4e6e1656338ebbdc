// Package compete implements the paper's core contribution: the Compete
// procedure (Algorithms 1–4) and its two applications, broadcasting
// (Theorem 5.1) and leader election (Algorithm 6 / Theorem 5.2).
//
// Compete(S) takes a source set S in which every source holds an integer
// message and guarantees, with high probability, that upon completion all
// nodes know the highest-valued source message, in
// O(D·log n/log D + |S|·D^0.125 + polylog n) rounds (Theorem 4.1).
//
// Structure (matching Section 3 of the paper):
//
//   - A precomputation phase partitions the network into coarse clusters
//     (Partition(β), β = D^-0.5), computes many fine clusterings for each
//     exponent j (β = 2^-j), builds intra-cluster schedules (Lemma 2.3),
//     and distributes a random sequence of fine clusterings within each
//     coarse cluster. Per DESIGN.md §3 this phase is executed by a
//     simulator oracle and charged the paper's round costs — the paper
//     itself notes collisions during precomputation can be ignored at an
//     O(log n) simulation cost (Section 4).
//   - The propagation phase runs packet-level on the true collision model
//     as two Compete processes, time-divided so that engine round t runs
//     process (t mod 4)>>1: the main process (Intra-Cluster Propagation
//     on the coarse cluster's random sequence of fine clusterings,
//     curtailed after O(log n/(β·log D)) per Theorem 2.2) and the
//     background process (Algorithm 2: fixed β, round-robin clusterings,
//     longer curtailment) that passes messages across coarse cluster
//     boundaries. Each runs its ICP on even t mod 4 and, on odd, its
//     Algorithm-4 Decay helper that informs cluster-border nodes. The
//     bulk path (bulk.go) runs both through one lane type: the
//     background process is a lane whose nodes share one clock.
//
// Intra-Cluster Propagation (Algorithm 3) is realized as three sub-phases
// per clustering slot: outward flood of the center's best message along
// the schedule, inward flood of any higher message toward the center, and
// a second outward flood of the center's updated best.
//
// The paper's exponents and counts are named constants with laptop-scale
// values; Config keeps only the knobs an experiment sets (the curtailment
// scale, the HW16 mode and the ablations). DESIGN.md §3 lists each
// constant with its paper value and explains the scaling.
package compete

import (
	"errors"
	"fmt"
	"math"
	"sort"

	"radionet/internal/cluster"
	"radionet/internal/decay"
	"radionet/internal/graph"
	"radionet/internal/protocol"
	"radionet/internal/radio"
	"radionet/internal/rng"
	"radionet/internal/schedule"
)

// KindICP tags all Intra-Cluster Propagation messages. A is the carried
// value, B is the sender's cluster center for the clustering in play.
const KindICP radio.Kind = 3

// Uninformed is the sentinel value of a node that knows no message yet.
// Source messages must be non-negative.
const Uninformed int64 = -1

// Config holds the settable parts of Algorithms 1–4: the main-process
// curtailment scale, the HW16 comparison mode and the ablations. The zero
// value runs the algorithm as specified (paper values are given in
// brackets; the fixed exponents are the constants below).
type Config struct {
	// CurtailC scales the main-process curtailment distance
	// ℓ(j) = CurtailC·2^j·log2 n/log2 D (Theorem 2.2) [default 1.0].
	CurtailC float64
	// CurtailLogLog multiplies the curtailment by log2 log2 n, recovering
	// the Haeupler–Wajc'16 schedule length (their distance-to-center bound
	// is an O(log log n) factor weaker); used as the HW16 comparison mode.
	CurtailLogLog bool
	// DisableCurtail runs every clustering slot to the clustering's full
	// strong radius instead of the Theorem 2.2 curtailment (ablation: this
	// is what switching clusterings *without* the paper's key insight
	// costs).
	DisableCurtail bool
	// DisableBackground silences the background process and its helper
	// (ablation: progress must then cross coarse-cluster boundaries
	// unaided).
	DisableBackground bool
	// DisableHelper silences both processes' Algorithm-4 helpers
	// (ablation: cluster border nodes are never repaired).
	DisableHelper bool
	// FixedJ forces every main-process slot to use fine exponent j
	// (ablation for the random-β choice of Theorem 2.2); 0 means random.
	FixedJ int
}

// The fixed exponents and counts of Algorithms 1–2, as [paper value;
// value used]. The values are scaled for simulable diameters (DESIGN.md
// §3): at D ≤ 10^3 the paper's exponents give near-trivial background
// clusters and a fine exponent range that rounds to one j.
const (
	// coarseBetaExp sets the coarse clustering parameter β = D^-x [0.5; 0.5].
	coarseBetaExp = 0.5
	// bgBetaExp sets the background process clustering β = D^-x [0.1; 0.3,
	// so background clusters are non-trivial at small D].
	bgBetaExp = 0.3
	// bgNumFine is the number of background clusterings cycled round-robin
	// [D^0.2; 3].
	bgNumFine = 3
	// bgCurtailC scales the background curtailment ℓ = bgCurtailC·log2 n/β
	// [O(log n/β); 0.5].
	bgCurtailC = 0.5
	// hopSlack is the number of schedule sweeps budgeted per hop of flood
	// progress when sizing sub-phase durations [—; 2, selected by a sweep
	// over the benchmark families].
	hopSlack = 2
	// tailSweeps is the additive sweep budget per sub-phase [—; 3].
	tailSweeps = 3
)

// finePerJ is the number of fine clusterings per exponent j
// [D^0.2; min(4, max(2, round(D^0.2)))].
func finePerJ(d int) int {
	return min(4, max(2, int(math.Round(math.Pow(float64(d), 0.2)))))
}

// withDefaults fills the zero CurtailC with its default.
func (c Config) withDefaults() Config {
	if c.CurtailC == 0 {
		c.CurtailC = 1.0
	}
	return c
}

// fine bundles one fine clustering with its schedule and slot geometry.
type fine struct {
	part    *cluster.Result
	sched   *schedule.Schedule
	beta    float64
	j       int
	curtail int32
	subLen  int64 // rounds per sub-phase (out, in, out)
	slotLen int64 // 3 * subLen
}

// Compete is a running Compete(S) instance.
type Compete struct {
	Engine *radio.Engine
	// PrecomputeRounds is the round cost charged for the oracle-executed
	// precomputation phase (DESIGN.md §3, substitution 1).
	PrecomputeRounds int64

	g      *graph.Graph
	d      int
	cfg    Config
	coarse *cluster.Result
	mains  []fine
	bgs    []fine
	// byJ indexes mains by exponent j for the FixedJ ablation.
	byJ map[int][]int32

	l4       int // Decay phase length of the Algorithm-4 lanes
	seqSeed  uint64
	coinMain uint64
	coinBg   uint64
	// coinKey keys every node's transmission coins (rng.WordCoins): the
	// ICP sweep and Algorithm-4 Decay coins of both processes, which the
	// engine round t keeps apart.
	coinKey uint64
	trueMax int64
	nsrc    int
	// prog counts nodes whose globalMax has reached trueMax (the
	// radio.Progress incremental-termination convention): globalMax only
	// grows and never exceeds trueMax, so Recv can count the threshold
	// crossing exactly once per node and Done is O(1).
	prog radio.Progress

	// Contiguous per-node protocol state, indexed by node id: the bulk
	// path (bulk.go) owns it, and the per-node reference implementation
	// the tests pin it to (node_test.go) shares the same slice, so
	// accessors and completion tracking are path-independent.
	globalMax []int64 // best known value per node (Uninformed sentinel)

	bulk *bulkState
}

// numLanes is the engine's time-division period: round t runs process
// (t mod 4)>>1 (0 main, 1 background), its ICP on even t mod 4 and its
// Algorithm-4 helper on odd.
const numLanes = 4

// New builds a Compete(S) instance from the seed-independent
// precomputation pre (NewPre). sources maps source nodes to their
// (non-negative) messages. All randomness — shifts, schedules, sequences,
// transmission coins — derives from seed, so instances sharing one Pre
// are bit-identical to instances built from their own.
func New(pre *Pre, seed uint64, sources map[int]int64) (*Compete, error) {
	g, d, cfg := pre.g, pre.d, pre.cfg
	if g.N() == 0 {
		return nil, errors.New("compete: empty graph")
	}
	if len(sources) == 0 {
		return nil, errors.New("compete: empty source set")
	}
	n := g.N()
	master := rng.New(seed)

	c := &Compete{
		g:        g,
		d:        d,
		cfg:      cfg,
		l4:       pre.l4,
		seqSeed:  master.Fork(1).Uint64(),
		coinMain: master.Fork(2).Uint64(),
		coinBg:   master.Fork(3).Uint64(),
		coinKey:  master.Fork(4).Uint64(),
		byJ:      make(map[int][]int32),
		trueMax:  Uninformed,
		nsrc:     len(sources),
	}

	// One set of build buffers — the Partition source, FIFO and node-state
	// buffers and the schedule contention buffer — serves every partition
	// and schedule of this construction.
	var partScr cluster.Scratch
	cont := make([]int32, n)

	// Precomputation (oracle; rounds charged below).
	// 1) Coarse clustering with β = D^-coarseBetaExp.
	c.coarse = cluster.PartitionScratch(g, pre.coarseBeta, master.Fork(10), &partScr)

	// 2) Fine clusterings for each exponent j, with schedules.
	if cfg.FixedJ != 0 {
		if cfg.FixedJ < pre.jmin || cfg.FixedJ > pre.jmax {
			return nil, fmt.Errorf("compete: FixedJ %d outside [%d, %d]", cfg.FixedJ, pre.jmin, pre.jmax)
		}
	}
	fid := int32(0)
	perJ := finePerJ(d)
	for j := pre.jmin; j <= pre.jmax; j++ {
		beta := math.Pow(2, -float64(j))
		for q := 0; q < perJ; q++ {
			f := c.newFine(beta, j, pre.ellMain[j-pre.jmin], master.Fork(100+uint64(fid)), &partScr, cont)
			c.mains = append(c.mains, f)
			c.byJ[j] = append(c.byJ[j], fid)
			fid++
		}
	}

	// 3) Background clusterings (Algorithm 2): fixed β = D^-bgBetaExp,
	// curtailment O(log n/β).
	for q := 0; q < bgNumFine; q++ {
		c.bgs = append(c.bgs, c.newFine(pre.bgBeta, 0, pre.ellBg, master.Fork(5000+uint64(q)), &partScr, cont))
	}

	c.PrecomputeRounds = c.precomputeCharge()

	// Per-node protocol state: flat slices indexed by node id.
	c.globalMax = make([]int64, n)
	for v := range c.globalMax {
		c.globalMax[v] = Uninformed
	}
	// Iterate sources in sorted order so the first validation error — and
	// with it the constructor's behavior — does not depend on map order.
	srcIDs := make([]int, 0, len(sources))
	for s := range sources {
		srcIDs = append(srcIDs, s)
	}
	sort.Ints(srcIDs)
	for _, s := range srcIDs {
		v := sources[s]
		if s < 0 || s >= n {
			return nil, fmt.Errorf("compete: source %d out of range", s)
		}
		if v < 0 {
			return nil, fmt.Errorf("compete: source %d has negative message %d", s, v)
		}
		c.globalMax[s] = v
		if v > c.trueMax {
			c.trueMax = v
		}
	}
	c.prog = *radio.NewProgress(int64(n))
	for _, s := range srcIDs {
		if sources[s] == c.trueMax {
			c.prog.Add(1)
		}
	}
	c.bulk = newBulkState(c)
	c.Engine = radio.NewEngine(g, c.bulk)
	return c, nil
}

// SubPhaseRounds is the length of one ICP sub-phase, one outward or
// inward flood, over distance ell on a schedule whose longest ladder is
// maxLevel: hopSlack sweeps per hop plus tailSweeps, at maxLevel rounds
// per sweep and at least 4 rounds.
func SubPhaseRounds(ell int32, maxLevel int) int64 {
	return max(4, int64(hopSlack*ell+tailSweeps)*int64(maxLevel))
}

// newFine builds one fine clustering of c's graph with parameter beta
// (exponent j; 0 for the background process), drawn from r, its schedule
// and its slot geometry for curtailment ell. Under DisableCurtail a slot
// runs to the clustering's strong radius (at least 2) instead. scr and
// cont are the construction's shared build buffers.
func (c *Compete) newFine(beta float64, j int, ell int32, r *rng.Rand, scr *cluster.Scratch, cont []int32) fine {
	part := cluster.PartitionScratch(c.g, beta, r, scr)
	sch := schedule.BuildScratch(c.g, part, cont)
	if c.cfg.DisableCurtail {
		ell = max(2, int32(part.MaxStrongRadius()))
	}
	subLen := SubPhaseRounds(ell, sch.MaxLevel)
	return fine{
		part:    part,
		sched:   sch,
		beta:    beta,
		j:       j,
		curtail: ell,
		subLen:  subLen,
		slotLen: 3 * subLen,
	}
}

// mainFid returns the fine clustering the given node's coarse cluster uses
// in main-process slot k (step 5 of Algorithm 1: each coarse cluster center
// draws a random sequence of fine clusterings; shared via the coarse
// schedule, modeled by the shared hash).
func (c *Compete) mainFid(v int32, k int64) int32 {
	if c.cfg.FixedJ != 0 {
		ids := c.byJ[c.cfg.FixedJ]
		h := rng.Hash64(c.seqSeed, uint64(c.coarse.Center[v]), uint64(k))
		return ids[h%uint64(len(ids))]
	}
	h := rng.Hash64(c.seqSeed, uint64(c.coarse.Center[v]), uint64(k))
	return int32(h % uint64(len(c.mains)))
}

// bgFid returns the background clustering for slot k (round-robin order,
// Algorithm 2).
func (c *Compete) bgFid(k int64) int32 {
	return int32(k % int64(len(c.bgs)))
}

// precomputeCharge totals the round costs of the oracle-executed
// precomputation, following the paper's stated bounds (DESIGN.md §3):
// O(log³n/β) per Partition (Lemma 2.1), O(radius·log²n) per schedule
// (Lemma 2.3 scoped to cluster radius), and O(D·log n) to distribute the
// clustering sequences through the coarse clusters.
func (c *Compete) precomputeCharge() int64 {
	l := int64(decay.Levels(c.g.N()))
	charge := l * l * l * int64(math.Ceil(1/c.coarse.Beta))
	all := make([]fine, 0, len(c.mains)+len(c.bgs))
	all = append(all, c.mains...)
	all = append(all, c.bgs...)
	for _, f := range all {
		charge += l * l * l * int64(math.Ceil(1/f.beta))
		charge += int64(f.part.MaxStrongRadius()) * l * l
	}
	charge += int64(c.d) * l
	return charge
}

// TrueMax returns the highest source message.
func (c *Compete) TrueMax() int64 { return c.trueMax }

// Done reports whether every node knows the highest source message. O(1):
// the crossing into globalMax == trueMax is counted incrementally in Recv.
func (c *Compete) Done() bool { return c.prog.Done() }

// ReachTarget returns the number of nodes Done waits on, n.
func (c *Compete) ReachTarget() int { return int(c.prog.Target()) }

// Reached returns how many nodes know the highest message: the
// numerator of the reach fraction over ReachTarget.
func (c *Compete) Reached() int { return int(c.prog.Count()) }

// Values returns each node's currently known best message (Uninformed for
// nodes that know nothing).
func (c *Compete) Values() []int64 {
	return append([]int64(nil), c.globalMax...)
}

// Budget returns Theorem 4.1's O(D·log n/log D + |S|·D^0.125 + polylog n)
// round bound with the implementation's constants; DefaultBudget is 8×
// this.
func (c *Compete) Budget() int64 {
	maxSlot := int64(0)
	sumSlot := int64(0)
	minProgress := math.Inf(1)
	for _, f := range c.mains {
		if f.slotLen > maxSlot {
			maxSlot = f.slotLen
		}
		sumSlot += f.slotLen
		if p := 1 / f.beta; p < minProgress {
			minProgress = p
		}
	}
	avgSlot := sumSlot / int64(len(c.mains))
	progress := minProgress / 4
	if progress < 1 {
		progress = 1
	}
	slots := int64(math.Ceil(8*float64(c.d)/progress)) + 32
	polylog := int64(80) * int64(c.l4) * int64(c.l4) * int64(c.l4)
	srcTerm := int64(c.nsrc) * int64(math.Ceil(math.Pow(float64(c.d), 0.125))) * int64(c.l4) * maxSlot / 8
	return numLanes * (slots*avgSlot + 8*maxSlot + polylog + srcTerm)
}

// DefaultBudget is the budget Run applies when given budget <= 0:
// 8×Budget(), the whp-sufficient policy every Compete descriptor
// documents.
func (c *Compete) DefaultBudget() int64 { return 8 * c.Budget() }

// Run executes the propagation phase until all nodes know the highest
// message or budget rounds elapse (budget <= 0 selects DefaultBudget).
func (c *Compete) Run(budget int64) protocol.Result {
	if budget <= 0 {
		budget = c.DefaultBudget()
	}
	rounds, done := c.Engine.RunUntil(budget, &c.prog)
	return protocol.Result{
		Rounds:      rounds,
		Tx:          c.Engine.Metrics.Transmissions,
		Done:        done,
		Reached:     c.Reached(),
		ReachTarget: c.ReachTarget(),
		Precompute:  c.PrecomputeRounds,
	}
}
