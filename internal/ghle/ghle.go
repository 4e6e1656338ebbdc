// Package ghle implements a Ghaffari–Haeupler-style leader election — a
// scoped variant of the elimination tournament of:
//
//	Mohsen Ghaffari and Bernhard Haeupler. "Near Optimal Leader Election
//	in Multi-Hop Radio Networks." SODA 2013 (arXiv:1210.8439).
//
// Their protocol elects a leader in almost the broadcast time T_BC by
// knocking candidates out with a geometric sequence of cheap, truncated
// broadcasts before paying for one full network-wide agreement broadcast
// — in contrast to the classical binary-search reduction's Θ(T_BC·log n)
// (one full budget per ID bit). The variant reproduced here keeps exactly
// that lever and simplifies the rest:
//
//  1. Candidates are sampled as in the source paper's Algorithm 6 (each
//     node with probability Θ(log n/n), random Θ(log n)-bit IDs).
//  2. Elimination phases i = 1..k, k = ⌈log₂ L⌉ (L = ⌈log₂ n⌉, so
//     k = Θ(log log n) as in GH13): surviving candidates seed a fresh
//     max-propagating Decay broadcast truncated to budget T/2^(k-i+1);
//     every candidate that hears an ID above its own is eliminated.
//     Early phases reach only small neighborhoods, but that is enough to
//     knock out most candidates — the GH13 insight — and their cost is
//     geometric, summing to < T.
//  3. One full agreement broadcast with budget T from the survivors; on
//     completion all nodes know the maximum ID, whose (unique) owner —
//     never eliminated, since no higher ID exists to be heard — becomes
//     leader.
//
// Total round cost < 2T where T defaults to 6·(D+L)·L, the same
// whp-sufficient Decay budget the max-broadcast baseline uses — "almost
// the same time as broadcasting", vs 40 full budgets for binary search.
package ghle

import (
	"errors"
	"fmt"
	"math/bits"

	"radionet/internal/decay"
	"radionet/internal/graph"
	"radionet/internal/protocol"
	"radionet/internal/rng"
)

// LE is a prepared (and, after Run, executed) election instance.
type LE struct {
	bc         *decay.Broadcast // re-armed for every phase
	n, d       int
	seed       uint64
	candidates map[int]int64

	// Run outcome.
	done      bool
	survivors map[int]int64
	leader    int
	leaderID  int64
	values    []int64 // final-phase per-node outputs, for Verify
}

// agreementBudget is the agreement-broadcast budget T = 6·(D+L)·L (L =
// ⌈log₂ n⌉ Decay levels); the whole election costs < 2T.
func agreementBudget(n, d int) int64 {
	l := int64(decay.Levels(n))
	return 6 * (int64(d) + l) * l
}

// phases returns the number of elimination phases before the agreement
// broadcast: ⌈log₂ L⌉ for L = ⌈log₂ n⌉ Decay levels, the GH13
// Θ(log log n), at least 1.
func phases(n int) int {
	k := bits.Len(uint(decay.Levels(n) - 1)) // ceil(log2 L)
	if k < 1 {
		k = 1
	}
	return k
}

// New samples the candidate set as Algorithm 6 does (a pure function of
// (n, seed), see protocol.SampleCandidates) and prepares the election on
// g with diameter d.
func New(g *graph.Graph, d int, seed uint64) (*LE, error) {
	if g.N() == 0 {
		return nil, errors.New("ghle: empty graph")
	}
	cands, err := protocol.SampleCandidates(g.N(), seed)
	if err != nil {
		return nil, err
	}
	bc := decay.NewBroadcast(g, d, decay.Config{}, seed, nil)
	return &LE{bc: bc, n: g.N(), d: d, seed: seed, candidates: cands, leader: -1}, nil
}

// Candidates exposes the sampled candidate set (node -> ID).
func (le *LE) Candidates() map[int]int64 { return le.candidates }

// Winner returns the maximum-ID candidate — the node the election elects
// whenever it completes (and the node a future fault capability must
// protect).
func (le *LE) Winner() (node int, id int64) {
	return protocol.MaxIDNode(le.candidates)
}

// Leader returns the elected node once Done; -1 before completion.
func (le *LE) Leader() int { return le.leader }

// LeaderID returns the agreed-upon winning ID (valid once Done).
func (le *LE) LeaderID() int64 { return le.leaderID }

// DefaultBudget implements protocol.Budgeted: 2T, the bound on the
// knockout phases (< T together) plus the agreement broadcast (T).
func (le *LE) DefaultBudget() int64 { return 2 * agreementBudget(le.n, le.d) }

// Run executes the tournament. budget <= 0 selects the agreement budget
// T = 6·(D+L)·L (total cost < 2T); an explicit budget B is split the
// same way with T = B/2, so the whole run never exceeds B. Rounds and Tx
// sum over every phase; Reached and ReachTarget are the agreement
// broadcast's. Run is single-use.
func (le *LE) Run(budget int64) protocol.Result {
	t := agreementBudget(le.n, le.d)
	if budget > 0 {
		t = max(budget/2, 1)
	}
	var rounds int64
	master := rng.New(le.seed)
	k := phases(le.n)
	cur := le.candidates
	for i := 0; i < k && len(cur) > 1; i++ {
		phaseBudget := t >> uint(k-i)
		if phaseBudget < 1 {
			continue // deeper than the budget resolves; skip the phase
		}
		le.bc.Rearm(master.Fork(uint64(1000+i)).Uint64(), cur)
		rounds += le.bc.Run(phaseBudget).Rounds
		vals := le.bc.Values()
		next := make(map[int]int64, len(cur))
		//lint:ordered pure keyed filter: next[v] depends only on v and vals[v]
		for v, id := range cur {
			// A candidate survives iff it heard nothing above its own ID
			// this phase. The maximum-ID candidate always survives.
			if vals[v] == id {
				next[v] = id
			}
		}
		cur = next
	}
	le.survivors = cur
	le.bc.Rearm(master.Fork(2000).Uint64(), cur)
	r := le.bc.Run(t)
	le.done = r.Done
	le.values = le.bc.Values()
	if le.done {
		le.leader, le.leaderID = le.Winner()
	}
	return protocol.Result{
		Rounds:      rounds + r.Rounds,
		Tx:          r.Tx,
		Done:        r.Done,
		Reached:     r.Reached,
		ReachTarget: r.ReachTarget,
		Verify:      le.Verify,
	}
}

// Verify checks the election postcondition after completion: the agreed
// ID is the true maximum over the sampled candidates, exactly one
// candidate owns it, it survived every elimination phase, and every node
// outputs it.
func (le *LE) Verify() error {
	if !le.done {
		return errors.New("ghle: election not complete")
	}
	wantNode, want := protocol.MaxIDNode(le.candidates)
	owners := 0
	for _, id := range le.candidates {
		if id == want {
			owners++
		}
	}
	if owners != 1 {
		return fmt.Errorf("ghle: %d candidates own the winning ID", owners)
	}
	if le.leaderID != want || le.leader != wantNode {
		return fmt.Errorf("ghle: elected (%d, %d), true winner (%d, %d)", le.leader, le.leaderID, wantNode, want)
	}
	if _, ok := le.survivors[wantNode]; !ok {
		return errors.New("ghle: the true winner was eliminated")
	}
	for v, got := range le.values {
		if got != want {
			return fmt.Errorf("ghle: node %d outputs %d, want %d", v, got, want)
		}
	}
	return nil
}

var _ protocol.LeaderRunner = (*LE)(nil)
