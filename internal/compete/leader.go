package compete

import (
	"errors"
	"fmt"

	"radionet/internal/protocol"
	"radionet/internal/radio"
)

// LeaderElection is Algorithm 6 / Theorem 5.2: nodes become candidates
// with probability Θ(log n/n), candidates draw Θ(log n)-bit random IDs,
// and Compete(C) propagates the highest ID. Upon completion all nodes
// output the same ID and exactly one node recognizes it as its own.
type LeaderElection struct {
	*Compete
	cands map[int]int64 // candidate node -> drawn ID
}

// NewLeaderElection builds a leader election instance from the
// seed-independent precomputation pre (see New); the election runs under
// the Config pre was built with.
//
// The candidates are protocol.SampleCandidates(n, seed); its redraws of
// empty or duplicate samples are measurement-neutral, since the paper's
// analysis conditions on |C| = Θ(log n) with unique IDs.
//
// plan, if non-nil, installs a fault scenario: completion becomes
// survivor-scoped exactly as in New, and Verify checks the postcondition
// over the survivor-reachable set only. For the election to stay
// winnable the plan must not crash the maximum-ID candidate (see the
// campaign's protect-the-winner convention); a crashed winner makes the
// run exhaust its budget with Done == false rather than elect a wrong
// leader.
func NewLeaderElection(pre *Pre, seed uint64, plan *radio.FaultPlan) (*LeaderElection, error) {
	g := pre.g
	if g.N() == 0 {
		return nil, errors.New("compete: empty graph")
	}
	candidates, err := protocol.SampleCandidates(g.N(), seed)
	if err != nil {
		return nil, err
	}
	c, err := New(pre, seed, candidates, plan)
	if err != nil {
		return nil, err
	}
	return &LeaderElection{Compete: c, cands: candidates}, nil
}

// Run runs the election (see Compete.Run) with Verify as the
// postcondition check.
func (le *LeaderElection) Run(budget int64) protocol.Result {
	res := le.Compete.Run(budget)
	res.Verify = le.Verify
	return res
}

// Candidates returns the sampled candidate set (node -> ID).
func (le *LeaderElection) Candidates() map[int]int64 { return le.cands }

// LeaderID returns the winning ID, the highest candidate ID (agreed on
// once Done).
func (le *LeaderElection) LeaderID() int64 { return le.TrueMax() }

// Leader returns the elected node once Done; -1 before completion.
func (le *LeaderElection) Leader() int {
	if !le.Done() {
		return -1
	}
	//lint:ordered candidate IDs are unique, so at most one node matches TrueMax
	for v, id := range le.cands {
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
	for _, id := range le.cands {
		if id == want {
			owners++
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
