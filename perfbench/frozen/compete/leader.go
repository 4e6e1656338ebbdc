package compete

import (
	"errors"
	"fmt"
	"math"

	"radionet/perfbench/frozen/graph"
	"radionet/perfbench/frozen/radio"
	"radionet/perfbench/frozen/rng"
)

// Broadcast is Theorem 5.1: Compete({s}) with the source's message, which
// completes broadcasting in O(D·log n/log D + polylog n) rounds whp.
type Broadcast struct {
	*Compete
	Source int
}

// NewBroadcast builds a broadcast of value from source src on g.
func NewBroadcast(g *graph.Graph, d int, cfg Config, seed uint64, src int, value int64) (*Broadcast, error) {
	return NewBroadcastPre(NewPre(g, d, cfg), seed, src, value)
}

// NewBroadcastPre is NewBroadcast with the seed-independent
// precomputation supplied externally (see NewWithPre).
func NewBroadcastPre(pre *Pre, seed uint64, src int, value int64) (*Broadcast, error) {
	return NewBroadcastPreFaults(pre, seed, src, value, nil)
}

// NewBroadcastPreFaults is NewBroadcastPre with a fault scenario
// installed; completion is survivor-scoped (see NewWithPreFaults).
func NewBroadcastPreFaults(pre *Pre, seed uint64, src int, value int64, plan *radio.FaultPlan) (*Broadcast, error) {
	c, err := NewWithPreFaults(pre, seed, map[int]int64{src: value}, plan)
	if err != nil {
		return nil, err
	}
	return &Broadcast{Compete: c, Source: src}, nil
}

// LeaderElection is Algorithm 6 / Theorem 5.2: nodes become candidates
// with probability Θ(log n/n), candidates draw Θ(log n)-bit random IDs,
// and Compete(C) propagates the highest ID. Upon completion all nodes
// output the same ID and exactly one node recognizes it as its own.
type LeaderElection struct {
	*Compete
	// Candidates maps candidate nodes to their drawn IDs.
	Candidates map[int]int64
}

// LeaderConfig extends Config with the candidate-sampling constant.
type LeaderConfig struct {
	Config
	// CandidateC scales the candidacy probability CandidateC·ln n/n
	// [paper Θ(log n/n); default 2].
	CandidateC float64
	// IDBits is the candidate ID length [Θ(log n); default 40].
	IDBits int
}

func (c LeaderConfig) withDefaults() LeaderConfig {
	if c.CandidateC == 0 {
		c.CandidateC = 2
	}
	if c.IDBits == 0 {
		c.IDBits = 40
	}
	return c
}

// NewLeaderElection builds a leader election instance on g.
//
// If the candidate sample comes out empty or with duplicate IDs (both
// probability O(n^-c) events the paper conditions away), the sample is
// redrawn with a salted seed; the deviation is measurement-neutral since
// the paper's analysis conditions on |C| = Θ(log n) with unique IDs.
func NewLeaderElection(g *graph.Graph, d int, cfg LeaderConfig, seed uint64) (*LeaderElection, error) {
	return NewLeaderElectionPre(NewPre(g, d, cfg.Config), cfg, seed)
}

// SampleCandidates draws the Algorithm-6 candidate set for an n-node
// network from seed: each node becomes a candidate with probability
// CandidateC·ln n/n and draws a random IDBits-bit ID; empty or duplicate
// samples are redrawn with a salted seed. The draw is a pure function of
// (n, cfg, seed) — the same one NewLeaderElection performs — so callers
// that need the candidate set before construction (e.g. fault planning
// that must protect the would-be winner) see exactly the election's
// candidates.
func SampleCandidates(n int, cfg LeaderConfig, seed uint64) (map[int]int64, error) {
	cfg = cfg.withDefaults()
	p := cfg.CandidateC * math.Log(float64(n)+2) / float64(n)
	if p > 1 {
		p = 1
	}
	idSpace := int64(1) << uint(cfg.IDBits)
	for salt := uint64(0); salt <= 1000; salt++ {
		r := rng.New(seed).Fork(7000 + salt)
		candidates := make(map[int]int64)
		used := make(map[int64]bool)
		dup := false
		for v := 0; v < n; v++ {
			cr := r.Fork(uint64(v))
			if !cr.Bernoulli(p) {
				continue
			}
			id := cr.Int63n(idSpace)
			if used[id] {
				dup = true
				break
			}
			used[id] = true
			candidates[v] = id
		}
		if !dup && len(candidates) > 0 {
			return candidates, nil
		}
	}
	return nil, errors.New("compete: could not sample a valid candidate set")
}

// NewLeaderElectionPre is NewLeaderElection with the seed-independent
// precomputation supplied externally: pre must come from
// NewPre(g, d, cfg.Config) (see NewWithPre).
func NewLeaderElectionPre(pre *Pre, cfg LeaderConfig, seed uint64) (*LeaderElection, error) {
	return NewLeaderElectionPreFaults(pre, cfg, seed, nil)
}

// NewLeaderElectionPreFaults is NewLeaderElectionPre with a fault
// scenario installed; completion becomes survivor-scoped exactly as in
// NewWithPreFaults, and Verify checks the postcondition over the
// survivor-reachable set only. For the election to stay winnable the
// plan must not crash the maximum-ID candidate (see the campaign's
// protect-the-winner convention); a crashed winner makes the run exhaust
// its budget with Done == false rather than elect a wrong leader.
func NewLeaderElectionPreFaults(pre *Pre, cfg LeaderConfig, seed uint64, plan *radio.FaultPlan) (*LeaderElection, error) {
	return newLeaderElection(pre, cfg, seed, plan, false)
}

// NewLeaderElectionPreFaultsRef is NewLeaderElectionPreFaults on the
// per-node reference path (see NewWithPreFaultsRef): required when a
// transport's round executor will poll the nodes individually.
func NewLeaderElectionPreFaultsRef(pre *Pre, cfg LeaderConfig, seed uint64, plan *radio.FaultPlan) (*LeaderElection, error) {
	return newLeaderElection(pre, cfg, seed, plan, true)
}

func newLeaderElection(pre *Pre, cfg LeaderConfig, seed uint64, plan *radio.FaultPlan, ref bool) (*LeaderElection, error) {
	g := pre.g
	if g.N() == 0 {
		return nil, errors.New("compete: empty graph")
	}
	candidates, err := SampleCandidates(g.N(), cfg, seed)
	if err != nil {
		return nil, err
	}
	c, err := newWithPre(pre, seed, candidates, plan, ref)
	if err != nil {
		return nil, err
	}
	return &LeaderElection{Compete: c, Candidates: candidates}, nil
}

// Leader returns the elected node once Done; -1 before completion.
func (le *LeaderElection) Leader() int {
	if !le.Done() {
		return -1
	}
	//lint:ordered candidate IDs are unique, so at most one node matches TrueMax
	for v, id := range le.Candidates {
		if id == le.TrueMax() {
			return v
		}
	}
	return -1
}

// Verify checks the leader election postcondition after completion: every
// node outputs the same ID and exactly one node holds it as its own.
// Under a fault plan the agreement check is survivor-scoped — only nodes
// in the survivor-reachable completion target are required to output the
// winning ID (crashed or unreachable nodes can never learn it).
func (le *LeaderElection) Verify() error {
	if !le.Done() {
		return errors.New("compete: election not complete")
	}
	want := le.TrueMax()
	owners := 0
	for v, id := range le.Candidates {
		if id == want {
			owners++
			_ = v
		}
	}
	if owners != 1 {
		return fmt.Errorf("compete: %d candidates own the winning ID", owners)
	}
	for v, got := range le.Values() {
		if le.counted != nil && !le.counted[v] {
			continue // outside the survivor-scoped completion target
		}
		if got != want {
			return fmt.Errorf("compete: node %d outputs %d, want %d", v, got, want)
		}
	}
	return nil
}
