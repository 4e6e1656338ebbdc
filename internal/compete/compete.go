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
//     as four interleaved TDM lanes: the main process (Intra-Cluster
//     Propagation on the coarse cluster's random sequence of fine
//     clusterings, curtailed after O(log n/(β·log D)) per Theorem 2.2),
//     its Algorithm-4 Decay background that informs cluster-border nodes,
//     the background Compete process (Algorithm 2: fixed β, round-robin
//     clusterings, longer curtailment) that passes messages across coarse
//     cluster boundaries, and that process's own Algorithm-4 lane.
//
// Intra-Cluster Propagation (Algorithm 3) is realized as three sub-phases
// per clustering slot: outward flood of the center's best message along
// the schedule, inward flood of any higher message toward the center, and
// a second outward flood of the center's updated best.
//
// All constants of the paper's exponents are named Config fields with
// laptop-scale defaults; DESIGN.md §3 explains the scaling.
package compete

import (
	"errors"
	"fmt"
	"math"
	"sort"

	"radionet/internal/cluster"
	"radionet/internal/decay"
	"radionet/internal/graph"
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

// Config holds every tunable constant of Algorithms 1–4. The zero value
// selects the documented defaults. Paper values are given in brackets;
// defaults are scaled for simulable diameters as explained in DESIGN.md §3.
type Config struct {
	// CoarseBetaExp sets the coarse clustering parameter β = D^-x [0.5].
	CoarseBetaExp float64
	// FineLoFrac/FineHiFrac set the range of the random fine exponent j:
	// j ∈ [lo·log2 D, hi·log2 D] [paper 0.01 and 0.1; defaults 0.25, 0.75].
	FineLoFrac, FineHiFrac float64
	// FinePerJ is the number of fine clusterings per j [D^0.2; default
	// min(4, max(2, round(D^0.2)))].
	FinePerJ int
	// BgBetaExp sets the background process clustering β = D^-x [0.1;
	// default 0.3 so background clusters are non-trivial at small D].
	BgBetaExp float64
	// BgNumFine is the number of background clusterings cycled round-robin
	// [D^0.2; default 3].
	BgNumFine int
	// CurtailC scales the main-process curtailment distance
	// ℓ(j) = CurtailC·2^j·log2 n/log2 D (Theorem 2.2) [default 1.0].
	CurtailC float64
	// CurtailLogLog multiplies the curtailment by log2 log2 n, recovering
	// the Haeupler–Wajc'16 schedule length (their distance-to-center bound
	// is an O(log log n) factor weaker); used as the HW16 comparison mode.
	CurtailLogLog bool
	// BgCurtailC scales the background curtailment ℓ = BgCurtailC·log2 n/β
	// [paper O(log n/β); default 0.5].
	BgCurtailC float64
	// HopSlack is the number of schedule sweeps budgeted per hop of flood
	// progress when sizing sub-phase durations [default 2, selected by a
	// sweep over the benchmark families].
	HopSlack float64
	// TailSweeps is the additive sweep budget per sub-phase [default 3].
	TailSweeps int
	// DisableCurtail runs every clustering slot to the clustering's full
	// strong radius instead of the Theorem 2.2 curtailment (ablation: this
	// is what switching clusterings *without* the paper's key insight
	// costs).
	DisableCurtail bool
	// DisableBackground silences lanes 2 and 3 (ablation: progress must
	// then cross coarse-cluster boundaries unaided).
	DisableBackground bool
	// DisableHelper silences the Algorithm-4 lanes (ablation: cluster
	// border nodes are never repaired).
	DisableHelper bool
	// FixedJ forces every main-process slot to use fine exponent j
	// (ablation for the random-β choice of Theorem 2.2); 0 means random.
	FixedJ int
	// Wrap, if set, wraps each node's protocol before it is installed in
	// the engine — the fault-injection hook (see radio.CrashNode et al.).
	Wrap func(v int, n radio.Node) radio.Node
}

func clampInt(v, lo, hi int) int {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}

// DefaultFineLoFrac and DefaultFineHiFrac are the default bounds of the
// fine exponent range, j ∈ [lo·log2 D, hi·log2 D] (cluster.JRange).
const (
	DefaultFineLoFrac = 0.25
	DefaultFineHiFrac = 0.75
)

// withDefaults fills zero fields with defaults for an (n, d) network.
func (c Config) withDefaults(d int) Config {
	if c.CoarseBetaExp == 0 {
		c.CoarseBetaExp = 0.5
	}
	if c.FineLoFrac == 0 {
		c.FineLoFrac = DefaultFineLoFrac
	}
	if c.FineHiFrac == 0 {
		c.FineHiFrac = DefaultFineHiFrac
	}
	if c.FinePerJ == 0 {
		c.FinePerJ = clampInt(int(math.Round(math.Pow(float64(d), 0.2))), 2, 4)
	}
	if c.BgBetaExp == 0 {
		c.BgBetaExp = 0.3
	}
	if c.BgNumFine == 0 {
		c.BgNumFine = 3
	}
	if c.CurtailC == 0 {
		c.CurtailC = 1.0
	}
	if c.BgCurtailC == 0 {
		c.BgCurtailC = 0.5
	}
	if c.HopSlack == 0 {
		c.HopSlack = 2
	}
	if c.TailSweeps == 0 {
		c.TailSweeps = 3
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

// icpState is one lane's Intra-Cluster Propagation position for a node.
type icpState struct {
	fid      int32 // index into the lane's fine set
	k        int64 // slot index
	offset   int64 // round offset within the slot
	subphase int8  // 0 out, 1 in, 2 out — valid after the lane's Act
	heard    bool  // heard the cluster flood this slot
	floodVal int64 // the cluster center's flooded value
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
	trueMax  int64
	nsrc     int
	// prog counts nodes whose globalMax has reached trueMax (the
	// radio.Progress incremental-termination convention): globalMax only
	// grows and never exceeds trueMax, so Recv can count the threshold
	// crossing exactly once per node and Done is O(1).
	prog radio.Progress
	// counted is the survivor-scoped completion mask (nil without a fault
	// plan): only nodes reachable from the surviving sources in the
	// survivor graph count toward prog — without the scoping, any crashed
	// node pins Done at false and a faulted run can only exhaust its
	// budget.
	counted []bool

	// Contiguous per-node protocol state, shared by the bulk fast path
	// (bulk.go) and the retained per-node reference implementation
	// (node.go): both operate on the same flat slices, indexed by node id,
	// so accessors and completion tracking are path-independent.
	globalMax []int64    // best known value per node (Uninformed sentinel)
	rnd       []rng.Rand // per-node transmission-coin streams

	// Exactly one of the two is populated: refs when a Wrap hook forces
	// the per-node engine path, bulk otherwise.
	refs []cnode
	bulk *bulkState
}

const (
	laneMain     = 0
	laneHelper   = 1
	laneBg       = 2
	laneBgHelper = 3
	numLanes     = 4
)

// New builds a Compete(S) instance on g with diameter d. sources maps
// source nodes to their (non-negative) messages. All randomness — shifts,
// schedules, sequences, transmission coins — derives from seed.
func New(g *graph.Graph, d int, cfg Config, seed uint64, sources map[int]int64) (*Compete, error) {
	return NewWithPre(NewPre(g, d, cfg), seed, sources)
}

// NewWithPre is New with the seed-independent precomputation geometry
// supplied externally: pre must come from NewPre with the same graph,
// diameter and config. Construction consumes exactly the same randomness
// as New, so trials sharing one Pre (the campaign per-config convention)
// remain bit-identical to independently constructed instances.
func NewWithPre(pre *Pre, seed uint64, sources map[int]int64) (*Compete, error) {
	return NewWithPreFaults(pre, seed, sources, nil)
}

// NewWithPreFaults is NewWithPre with a fault scenario installed.
// Completion becomes survivor-scoped: the Progress target is the set of
// nodes reachable from the (surviving) sources in the survivor graph, so
// Done/Run keep their meaning when crashed nodes can never learn the
// message. With the default bulk path the plan is installed as the
// engine-side overlay (radio.FaultPlan), keeping the bulk-path speed; with
// a Wrap hook the overlay is left uninstalled and the hook is expected to
// realize the same faults per node (radio.FaultPlan.Wrap builds the
// equivalent wrapper chain). A plan is single-use — build one per
// constructed instance.
func NewWithPreFaults(pre *Pre, seed uint64, sources map[int]int64, plan *radio.FaultPlan) (*Compete, error) {
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
		byJ:      make(map[int][]int32),
		trueMax:  Uninformed,
		nsrc:     len(sources),
	}

	scr, release := pre.scratch()
	defer release()

	// Precomputation (oracle; rounds charged below).
	// 1) Coarse clustering with β = D^-CoarseBetaExp.
	c.coarse = cluster.PartitionScratch(g, pre.coarseBeta, master.Fork(10), &scr.part)

	// 2) Fine clusterings for each exponent j, with schedules.
	if cfg.FixedJ != 0 {
		if cfg.FixedJ < pre.jmin || cfg.FixedJ > pre.jmax {
			return nil, fmt.Errorf("compete: FixedJ %d outside [%d, %d]", cfg.FixedJ, pre.jmin, pre.jmax)
		}
	}
	fid := int32(0)
	for j := pre.jmin; j <= pre.jmax; j++ {
		beta := math.Pow(2, -float64(j))
		for q := 0; q < cfg.FinePerJ; q++ {
			part := cluster.PartitionScratch(g, beta, master.Fork(100+uint64(fid)), &scr.part)
			sch := schedule.BuildScratch(g, part, scr.cont)
			ell := pre.ellMain[j-pre.jmin]
			if cfg.DisableCurtail {
				ell = int32(part.MaxStrongRadius())
				if ell < 2 {
					ell = 2
				}
			}
			c.mains = append(c.mains, c.newFine(part, sch, beta, j, ell))
			c.byJ[j] = append(c.byJ[j], fid)
			fid++
		}
	}

	// 3) Background clusterings (Algorithm 2): fixed β = D^-BgBetaExp,
	// curtailment O(log n/β).
	for q := 0; q < cfg.BgNumFine; q++ {
		part := cluster.PartitionScratch(g, pre.bgBeta, master.Fork(5000+uint64(q)), &scr.part)
		sch := schedule.BuildScratch(g, part, scr.cont)
		ell := pre.ellBg
		if cfg.DisableCurtail {
			ell = int32(part.MaxStrongRadius())
			if ell < 2 {
				ell = 2
			}
		}
		c.bgs = append(c.bgs, c.newFine(part, sch, pre.bgBeta, 0, ell))
	}

	c.PrecomputeRounds = c.precomputeCharge()

	// Per-node protocol state: flat slices indexed by node id, shared by
	// whichever engine path runs (bulk or per-node reference).
	c.globalMax = make([]int64, n)
	c.rnd = make([]rng.Rand, n)
	for v := 0; v < n; v++ {
		c.globalMax[v] = Uninformed
		c.rnd[v] = *master.Fork(0x1_0000_0000 + uint64(v))
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
	target := int64(n)
	if plan != nil {
		if plan.N() != n {
			return nil, fmt.Errorf("compete: fault plan for %d nodes on %d-node graph", plan.N(), n)
		}
		c.counted, target = plan.CountedTarget(g, sources)
	}
	c.prog = *radio.NewProgress(target)
	for _, s := range srcIDs {
		if sources[s] == c.trueMax && (c.counted == nil || c.counted[s]) {
			c.prog.Add(1)
		}
	}
	rn := make([]radio.Node, n)
	if cfg.Wrap != nil {
		// Reference path: contiguous per-node machines behind the
		// wrappers, the semantic baseline the bulk fast path is verified
		// against. The bulk seams stay uninstalled, and so does the fault
		// overlay (the Wrap hook owns per-node behavior).
		c.refs = make([]cnode, n)
		for v := 0; v < n; v++ {
			c.refs[v] = cnode{id: int32(v), c: c}
			c.refs[v].main.fid = c.mainFid(int32(v), 0)
			rn[v] = cfg.Wrap(v, &c.refs[v])
		}
		c.Engine = radio.NewEngine(g, rn)
		return c, nil
	}
	c.bulk = newBulkState(c)
	for v := 0; v < n; v++ {
		rn[v] = &c.bulk.shims[v]
	}
	c.Engine = radio.NewEngine(g, rn)
	c.Engine.Bulk = c.bulk
	c.Engine.BulkRecv = c.bulk
	c.Engine.SetFaults(plan)
	return c, nil
}

// newFine computes slot geometry for a clustering with curtailment ell.
func (c *Compete) newFine(part *cluster.Result, sch *schedule.Schedule, beta float64, j int, ell int32) fine {
	sweeps := c.cfg.HopSlack*float64(ell) + float64(c.cfg.TailSweeps)
	subLen := int64(math.Ceil(sweeps)) * int64(sch.MaxLevel)
	if subLen < 4 {
		subLen = 4
	}
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

// doneFullScan is the O(n) reference implementation of Done, kept for the
// equivalence tests.
func (c *Compete) doneFullScan() bool {
	for v, val := range c.globalMax {
		if c.counted != nil && !c.counted[v] {
			continue // outside the survivor-scoped completion target
		}
		if val != c.trueMax {
			return false
		}
	}
	return true
}

// InformedCount returns how many nodes currently know the highest message.
func (c *Compete) InformedCount() int { return int(c.prog.Count()) }

// ReachTarget returns the number of nodes Done waits on: n for a
// fault-free run, the survivor-reachable set size under a fault plan.
func (c *Compete) ReachTarget() int { return int(c.prog.Target()) }

// Reached is InformedCount under its fault-campaign name: the numerator
// of the reach fraction over ReachTarget.
func (c *Compete) Reached() int { return int(c.prog.Count()) }

// Values returns each node's currently known best message (Uninformed for
// nodes that know nothing).
func (c *Compete) Values() []int64 {
	return append([]int64(nil), c.globalMax...)
}

// Budget returns a generous default round budget for Run, derived from
// Theorem 4.1's O(D·log n/log D + |S|·D^0.125 + polylog n) with the
// implementation's constants.
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

// Run executes the propagation phase until all nodes know the highest
// message or maxRounds elapse (pass 0 to use Budget()). It returns the
// rounds consumed in this call and whether Compete completed.
func (c *Compete) Run(maxRounds int64) (int64, bool) {
	if maxRounds <= 0 {
		maxRounds = c.Budget()
	}
	return c.Engine.RunUntil(maxRounds, &c.prog)
}
