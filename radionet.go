// Package radionet is a simulator and algorithm library for multi-hop
// radio networks, built as a full reproduction of:
//
//	Artur Czumaj and Peter Davies. "Exploiting Spontaneous Transmissions
//	for Broadcasting and Leader Election in Radio Networks." PODC 2017.
//
// The model: an unknown-topology, undirected, connected radio network of
// n nodes with diameter D, synchronous rounds, no collision detection,
// spontaneous transmissions allowed. A listening node receives a message
// iff exactly one of its neighbors transmits.
//
// The package exposes:
//
//   - topology generators and a packet-level radio simulator,
//   - the paper's Compete/Broadcast/LeaderElection algorithms
//     (O(D·log n/log D + polylog n) rounds whp),
//   - the prior-work baselines they are compared against (Decay/BGI,
//     truncated Decay, Haeupler–Wajc mode, binary-search and
//     max-broadcast leader election), and
//   - the Miller–Peng–Xu Partition(β) clustering in centralized and
//     distributed forms.
//
// Quick start:
//
//	g := radionet.Grid(16, 64)
//	net := radionet.NewNetwork(g)
//	res, err := net.Broadcast(0, 42, radionet.BroadcastOptions{Seed: 1})
//	// res.Rounds is the number of radio rounds until every node knew 42.
//
// The experiment harness behind DESIGN.md §6 and EXPERIMENTS.md is in
// cmd/experiments; cmd/campaign runs declarative topology × algorithm ×
// seed matrices on the internal/campaign worker pool; runnable scenarios
// are under examples/.
package radionet

import (
	"errors"
	"fmt"

	"radionet/internal/cluster"
	"radionet/internal/compete"
	"radionet/internal/graph"
	"radionet/internal/obs"
	"radionet/internal/protocol"
	"radionet/internal/radio"
	"radionet/internal/rng"

	// Populate the protocol registry: the facade resolves every
	// algorithm through it, so newly registered algorithms are callable
	// here (and from cmd/radiosim) without facade changes.
	_ "radionet/internal/protocol/all"
)

// Graph is an immutable undirected network topology.
type Graph = graph.Graph

// GraphBuilder accumulates edges into a Graph.
type GraphBuilder = graph.Builder

// NewGraphBuilder returns a builder for a named graph on n nodes.
func NewGraphBuilder(name string, n int) *GraphBuilder { return graph.NewBuilder(name, n) }

// Topology generators (see internal/graph for the full catalogue).
var (
	// Path returns the path graph on n nodes.
	Path = graph.Path
	// Cycle returns the cycle on n >= 3 nodes.
	Cycle = graph.Cycle
	// Grid returns the rows x cols grid.
	Grid = graph.Grid
	// Star returns the star on n nodes with center 0.
	Star = graph.Star
	// Complete returns the complete graph on n nodes.
	Complete = graph.Complete
	// Hypercube returns the dim-dimensional hypercube.
	Hypercube = graph.Hypercube
	// BalancedTree returns the complete arity-ary tree of the given depth.
	BalancedTree = graph.BalancedTree
	// PathOfCliques returns k cliques of size s chained by bridge edges.
	PathOfCliques = graph.PathOfCliques
	// Caterpillar returns a spine path with pendant legs.
	Caterpillar = graph.Caterpillar
	// Dumbbell returns two cliques joined by a path.
	Dumbbell = graph.Dumbbell
)

// RandomGeometric returns a connected unit-disk graph of n nodes with the
// given radius, the classic ad-hoc wireless deployment model.
func RandomGeometric(n int, radius float64, seed uint64) *Graph {
	return graph.RandomGeometric(n, radius, rng.New(seed))
}

// Gnp returns a connected Erdős–Rényi graph (a random spanning tree plus
// G(n, p) edges).
func Gnp(n int, p float64, seed uint64) *Graph {
	return graph.Gnp(n, p, rng.New(seed))
}

// RandomTree returns a uniform random recursive tree on n nodes.
func RandomTree(n int, seed uint64) *Graph {
	return graph.RandomTree(n, rng.New(seed))
}

// Algorithm selects a broadcasting algorithm.
type Algorithm string

// Broadcasting algorithms.
const (
	// CD17 is the paper's algorithm: Compete over random fine clusterings
	// with Theorem 2.2 curtailment. O(D·log n/log D + polylog n) whp.
	CD17 Algorithm = "cd17"
	// HW16 is the Haeupler–Wajc PODC'16 comparison mode: the same
	// pipeline with their O(log log n)-longer intra-cluster schedules.
	HW16 Algorithm = "hw16"
	// BGI is the classical Decay broadcast of Bar-Yehuda–Goldreich–Itai,
	// O((D+log n)·log n); no spontaneous transmissions.
	BGI Algorithm = "bgi"
	// TruncatedDecay is the Czumaj–Rytter/Kowalski–Pelc-flavored
	// surrogate, O(D·log(n/D) + log²n)-style truncated Decay phases.
	TruncatedDecay Algorithm = "truncated-decay"
)

// Config re-exports the settable parts of the paper's pipeline
// (compete.Config): the curtailment scale, the HW16 comparison mode and
// the ablations. The paper's exponents are fixed constants (DESIGN.md
// §3). Only the CD17 algorithms (and HW16) take a non-zero Config; the
// others reject one.
type Config = compete.Config

// Network wraps a topology with its (estimated) diameter, the two
// parameters the model assumes nodes know. Every run on a Network builds
// its own seed-independent precomputation (for CD17, the clustering
// parameter grid) inside the algorithm's Build.
type Network struct {
	G *Graph
	// Diameter is the hop diameter D. NewNetwork fills it with an
	// iterated double-sweep estimate (exact on the provided structured
	// families); set it explicitly when known.
	Diameter int
}

// NewNetwork returns a Network for g with an estimated diameter. It
// panics if g is empty or disconnected (the model requires connectivity).
func NewNetwork(g *Graph) *Network {
	if g.N() == 0 {
		panic("radionet: empty graph")
	}
	if !g.IsConnected() {
		panic("radionet: disconnected graph")
	}
	return &Network{G: g, Diameter: g.DiameterEstimate()}
}

// Result reports a protocol run.
type Result struct {
	// Rounds is the number of propagation rounds executed until the
	// completion condition held (or the budget ran out).
	Rounds int64
	// PrecomputeRounds is the charged cost of the precomputation phase
	// for the clustering algorithms (0 for the oblivious baselines); see
	// DESIGN.md §3.
	PrecomputeRounds int64
	// Done reports whether the task completed within budget.
	Done bool
	// Reached/ReachTarget report broadcast completion accounting:
	// ReachTarget is n, and Reached is how many nodes know the message
	// (== ReachTarget exactly when Done).
	Reached, ReachTarget int
}

// RoundHook observes every executed round (tracing/metrics); see
// internal/trace for a ready-made recorder.
type RoundHook = radio.RoundHook

// ChainHooks composes round hooks left to right, skipping nils — the way
// to observe a run with both a trace recorder and a metrics collector.
var ChainHooks = radio.ChainHooks

// MetricsRegistry is a snapshotable collection of run metrics (atomic
// counters, gauges and histograms; see internal/obs). Point
// BroadcastOptions.Metrics or LeaderOptions.Metrics at one to accumulate
// engine counters — rounds, transmissions, deliveries, collisions —
// across any number of runs, then read them with Snapshot. Purely
// observational: enabling it never changes a run's results.
type MetricsRegistry = obs.Registry

// NewMetricsRegistry returns an empty metrics registry.
func NewMetricsRegistry() *MetricsRegistry { return obs.NewRegistry() }

// BroadcastOptions configure Broadcast and Compete.
type BroadcastOptions struct {
	// Algorithm defaults to CD17.
	Algorithm Algorithm
	// Seed makes the run reproducible; equal seeds give identical runs.
	Seed uint64
	// MaxRounds caps the run; 0 selects a whp-sufficient budget.
	MaxRounds int64
	// Config tunes the CD17/HW16 pipeline (zero value = defaults).
	Config Config
	// Hook, if set, observes every round of the run.
	Hook RoundHook
	// Metrics, if set, accumulates the run's engine counters into the
	// registry (composed with Hook; see MetricsRegistry).
	Metrics *MetricsRegistry
	// EngineShards, if > 1, splits each engine round's delivery work across
	// that many goroutines (see radio.Engine.SetShards). Output is
	// byte-identical at any value; 0 and 1 both mean unsharded.
	EngineShards int
}

// Broadcast delivers value from node src to every node and returns the
// round count (Theorem 5.1 for the CD17 algorithm).
func (n *Network) Broadcast(src int, value int64, o BroadcastOptions) (Result, error) {
	if src < 0 || src >= n.G.N() {
		return Result{}, fmt.Errorf("radionet: source %d out of range", src)
	}
	if value < 0 {
		return Result{}, errors.New("radionet: message values must be non-negative")
	}
	return n.Compete(map[int]int64{src: value}, o)
}

// tuning converts the facade's typed Config into a BuildParams.Tuning
// value: nil for the zero value (every algorithm's defaults), the Config
// itself otherwise. Descriptors that don't take a compete.Config reject a
// non-zero one loudly instead of silently ignoring it.
func tuning(cfg Config) any {
	if cfg == (Config{}) {
		return nil
	}
	return cfg
}

// Compete runs the paper's generalized primitive: every source in sources
// holds a message, and on completion all nodes know the highest one
// (Theorem 4.1). The oblivious baselines run their multi-source
// extensions. Algorithms resolve through the protocol registry
// (internal/protocol), so every registered broadcast descriptor — run
// `cmd/radiosim -list` for the catalogue — is accepted.
func (n *Network) Compete(sources map[int]int64, o BroadcastOptions) (Result, error) {
	for s, v := range sources {
		if v < 0 {
			return Result{}, fmt.Errorf("radionet: source %d has negative message %d", s, v)
		}
	}
	out, err := n.run(protocol.Broadcast, sources, o)
	if err != nil {
		return Result{}, err
	}
	return facadeResult(out), nil
}

// run is the shared body of Compete and LeaderElection: resolve
// o.Algorithm (default cd17) under task and execute one run through the
// registry's Build/Run/Verify routine (protocol.Descriptor.Execute).
func (n *Network) run(task protocol.Task, sources map[int]int64, o BroadcastOptions) (protocol.Outcome, error) {
	name := string(o.Algorithm)
	if name == "" {
		name = string(CD17)
	}
	desc, ok := protocol.Lookup(task, name)
	if !ok {
		return protocol.Outcome{}, fmt.Errorf("radionet: unknown %s algorithm %q", task, name)
	}
	return desc.Execute(protocol.BuildParams{
		G: n.G, D: n.Diameter, Seed: o.Seed,
		Sources: sources, Tuning: tuning(o.Config),
		Hook:   radio.ChainHooks(o.Hook, obs.NewEngineCollector(o.Metrics).Hook()),
		Shards: o.EngineShards,
	}, o.MaxRounds)
}

// facadeResult converts an executed run into the facade's Result.
func facadeResult(out protocol.Outcome) Result {
	return Result{
		Rounds: out.Rounds, PrecomputeRounds: out.Precompute, Done: out.Done,
		Reached: out.Reached, ReachTarget: out.ReachTarget,
	}
}

// LeaderAlgorithm selects a leader election algorithm.
type LeaderAlgorithm string

// Leader election algorithms.
const (
	// CD17Leader is Algorithm 6 of the paper: O(log n) random candidates
	// compete; O(D·log n/log D + polylog n) whp (Theorem 5.2).
	CD17Leader LeaderAlgorithm = "cd17"
	// BinarySearchLeader is the classical [2] reduction: a network-wide
	// binary search over the ID space, O(T_BC · log n).
	BinarySearchLeader LeaderAlgorithm = "binary-search"
	// MaxBroadcastLeader elects via one multi-source max-propagating
	// Decay broadcast, the expected-O(T_BC) approach of [8].
	MaxBroadcastLeader LeaderAlgorithm = "max-broadcast"
	// GH13Leader is the Ghaffari–Haeupler SODA'13-style elimination
	// tournament (internal/ghle): Θ(log log n) geometric knockout
	// broadcasts plus one full agreement broadcast, < 2·T_BC total.
	GH13Leader LeaderAlgorithm = "gh13"
)

// LeaderOptions configure LeaderElection.
type LeaderOptions struct {
	// Algorithm defaults to CD17Leader.
	Algorithm LeaderAlgorithm
	// Seed makes the run reproducible.
	Seed uint64
	// MaxRounds caps the run; 0 selects a whp-sufficient budget.
	MaxRounds int64
	// Config tunes the CD17 pipeline.
	Config Config
	// Hook, if set, observes every round the run simulates.
	Hook RoundHook
	// Metrics, if set, accumulates the run's engine counters into the
	// registry (composed with Hook; see MetricsRegistry).
	Metrics *MetricsRegistry
	// EngineShards, if > 1, splits each engine round's delivery work across
	// that many goroutines (see radio.Engine.SetShards). Output is
	// byte-identical at any value; 0 and 1 both mean unsharded.
	EngineShards int
}

// LeaderResult reports a leader election run.
type LeaderResult struct {
	Result
	// Leader is the elected node (-1 if the run did not complete).
	Leader int
	// LeaderID is the agreed-upon winning ID.
	LeaderID int64
	// Candidates is the sampled candidate set (node -> ID).
	Candidates map[int]int64
}

// LeaderElection elects a single leader known to all nodes. Algorithms
// resolve through the protocol registry, so every registered leader
// descriptor — including ones added after this facade was written, like
// the Ghaffari–Haeupler-style "gh13" — is accepted. Done additionally
// requires the algorithm's postcondition check (protocol.Result.Verify)
// to pass where one is registered.
func (n *Network) LeaderElection(o LeaderOptions) (LeaderResult, error) {
	out, err := n.run(protocol.Leader, nil, BroadcastOptions{
		Algorithm: Algorithm(o.Algorithm), Seed: o.Seed, MaxRounds: o.MaxRounds,
		Config: o.Config, Hook: o.Hook, Metrics: o.Metrics,
		EngineShards: o.EngineShards,
	})
	if err != nil {
		return LeaderResult{}, err
	}
	res := LeaderResult{Result: facadeResult(out), Leader: -1}
	if lr, ok := out.Runner.(protocol.LeaderRunner); ok {
		res.Candidates = lr.Candidates()
		res.Leader = lr.Leader()
		if out.Done {
			res.LeaderID = lr.LeaderID()
		}
	}
	return res, nil
}

// Clustering re-exports the Miller–Peng–Xu Partition(β) result type.
type Clustering = cluster.Result

// PartitionGraph runs the centralized Partition(β) of Lemma 2.1 on g: a
// multi-source BFS from every node v shifted by an exponential δ_v, in
// O(n log n + m) time. The result is a pure function of g, beta and seed;
// each Parent is a shortest-path parent inside the cluster, the first
// settled where several tie.
func PartitionGraph(g *Graph, beta float64, seed uint64) *Clustering {
	return cluster.Partition(g, beta, rng.New(seed))
}
