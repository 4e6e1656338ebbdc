// Package baseline implements the prior algorithms the paper compares
// against in Sections 1.3–1.4, so that every comparison claim can be
// regenerated:
//
//   - BGI broadcast [3], O((D+log n)·log n): decay.NewBroadcast.
//   - Czumaj–Rytter / Kowalski–Pelc flavored broadcast [9, 14],
//     O(D·log(n/D) + log²n): TruncatedDecay below. The real algorithms
//     use selective families; the surrogate keeps their key lever — Decay
//     phases truncated to the log(n/D) contention scale of a D-layer
//     network — and is labeled a surrogate wherever it is reported.
//   - Binary-search leader election [2], O(T_BC·log n): BinarySearchLE.
//   - Expected-O(T_BC) leader election in the style of Czumaj–Davies'19
//     [8]: MaxBroadcastLE (multi-source max-propagating Decay broadcast of
//     random candidate IDs). The Ghaffari–Haeupler'13 algorithm sits
//     between these two bounds; MaxBroadcastLE is the stand-in for the
//     "fast prior LE" series and is labeled as such (DESIGN.md §3).
//   - Haeupler–Wajc'16 broadcast: compete.Config{CurtailLogLog: true},
//     i.e. the same pipeline with their O(log log n)-weaker curtailment
//     (registered by internal/compete as broadcast:hw16).
package baseline

import (
	"errors"
	"fmt"
	"math/bits"

	"radionet/internal/decay"
	"radionet/internal/graph"
	"radionet/internal/protocol"
	"radionet/internal/rng"
)

// TruncatedDecayLevels returns the phase length used by the CR/KP
// surrogate: ceil(log2(n/D)) + 2, at least 2.
func TruncatedDecayLevels(n, d int) int {
	if d < 1 {
		d = 1
	}
	ratio := n / d
	if ratio < 1 {
		ratio = 1
	}
	l := bits.Len(uint(ratio)) + 1
	if l < 2 {
		l = 2
	}
	return l
}

// BinarySearchLE is the classical reduction [2]: a network-wide binary
// search for the highest candidate ID, one multi-source broadcast per ID
// bit. Each iteration asks "is there a candidate whose ID has the current
// prefix and a 1 in the next bit?" by having exactly those candidates run
// a Decay broadcast for a fixed T_BC budget; hearing anything sets the
// bit. Total time O(T_BC · protocol.IDBits).
type BinarySearchLE struct {
	bc         *decay.Broadcast // re-armed for every ID bit
	seed       uint64
	candidates map[int]int64
	tbc        int64 // the whp per-bit broadcast budget T_BC

	// Run outcome.
	leader   int
	leaderID int64
}

// NewBinarySearchLE samples candidates exactly like Algorithm 6 (see
// protocol.SampleCandidates) and prepares the binary search with the per-iteration
// broadcast budget tbc = 3·(D+log n)·log n, a whp-sufficient BGI budget.
func NewBinarySearchLE(g *graph.Graph, d int, seed uint64) (*BinarySearchLE, error) {
	cands, err := protocol.SampleCandidates(g.N(), seed)
	if err != nil {
		return nil, err
	}
	l := int64(decay.Levels(g.N()))
	bc := decay.NewBroadcast(g, d, decay.Config{}, seed, nil)
	return &BinarySearchLE{bc: bc, seed: seed, candidates: cands, tbc: 3 * (int64(d) + l) * l, leader: -1}, nil
}

// Candidates exposes the sampled candidate set.
func (b *BinarySearchLE) Candidates() map[int]int64 { return b.candidates }

// Leader returns the elected node once Done; -1 before completion.
func (b *BinarySearchLE) Leader() int { return b.leader }

// LeaderID returns the ID the search converged on (valid once Done).
func (b *BinarySearchLE) LeaderID() int64 { return b.leaderID }

// DefaultBudget implements protocol.Budgeted: the whp per-bit broadcast
// budget T_BC times the ID-bit count.
func (b *BinarySearchLE) DefaultBudget() int64 { return b.tbc * protocol.IDBits }

// Run performs the binary search. Each bit's broadcast gets T_BC rounds;
// an explicit budget > 0 is split evenly over the protocol.IDBits broadcasts
// instead, floored to one round per bit. The reported round count is the
// sum over iterations of the per-bit budget, as in the classical analysis
// (iterations are budget-bound, not adaptive). Bit b's broadcast is
// seeded from rng.New(seed).Fork(b). The round hook sees the
// simulated rounds, <= Rounds: silent bits run none, and a broadcast
// stops when it completes.
func (b *BinarySearchLE) Run(budget int64) protocol.Result {
	tbc := b.tbc
	if budget > 0 {
		tbc = max(budget/protocol.IDBits, 1)
	}
	prefix := int64(0)
	var rounds int64
	master := rng.New(b.seed)
	for bit := protocol.IDBits - 1; bit >= 0; bit-- {
		probe := prefix | 1<<uint(bit)
		sources := make(map[int]int64)
		for v, id := range b.candidates {
			// Candidates whose ID matches the decided prefix and has a 1
			// at this bit announce themselves.
			if id>>uint(bit+1) == prefix>>uint(bit+1) && (id>>uint(bit))&1 == 1 {
				sources[v] = 1
			}
		}
		rounds += tbc
		if len(sources) == 0 {
			continue // silence everywhere; bit stays 0
		}
		b.bc.Rearm(master.Fork(uint64(bit)).Uint64(), sources)
		b.bc.Run(tbc)
		// In the model every node that heard anything learns the bit is 1.
		// The oracle checks the source set was non-empty, which is what
		// reception signals; nodes that heard nothing within T_BC would
		// conclude 0 (a whp-correct conclusion given the budget).
		prefix = probe
	}
	b.leaderID = prefix
	//lint:ordered candidate IDs are unique, so at most one node matches the winner
	for v, id := range b.candidates {
		if id == prefix {
			b.leader = v
		}
	}
	return protocol.Result{Rounds: rounds, Tx: b.bc.Engine.Metrics.Transmissions, Done: b.leader >= 0, Verify: b.Verify}
}

// Verify checks that the binary search converged on the true maximum
// candidate ID and that the elected node owns it.
func (b *BinarySearchLE) Verify() error {
	if b.leader < 0 {
		return errors.New("baseline: election not complete")
	}
	_, max := protocol.MaxIDNode(b.candidates)
	if b.leaderID != max {
		return fmt.Errorf("baseline: binary search converged on %d, true max is %d", b.leaderID, max)
	}
	if b.candidates[b.leader] != max {
		return fmt.Errorf("baseline: elected node %d does not own the winning ID", b.leader)
	}
	return nil
}

// MaxBroadcastLE elects a leader with a single multi-source max-propagating
// Decay broadcast of candidate IDs, the expected-O(T_BC) approach of [8].
type MaxBroadcastLE struct {
	bc         *decay.Broadcast
	candidates map[int]int64
	budget     int64
	done       bool
}

// NewMaxBroadcastLE samples candidates as in Algorithm 6 and prepares the
// broadcast with the default budget 6·(D+log n)·log n.
func NewMaxBroadcastLE(g *graph.Graph, d int, seed uint64) (*MaxBroadcastLE, error) {
	cands, err := protocol.SampleCandidates(g.N(), seed)
	if err != nil {
		return nil, err
	}
	l := int64(decay.Levels(g.N()))
	return &MaxBroadcastLE{
		bc:         decay.NewBroadcast(g, d, decay.Config{}, seed, cands),
		candidates: cands,
		budget:     6 * (int64(d) + l) * l,
	}, nil
}

// Candidates exposes the sampled candidate set.
func (m *MaxBroadcastLE) Candidates() map[int]int64 { return m.candidates }

// Leader returns the elected node, the maximum-ID candidate, once Done;
// -1 before completion.
func (m *MaxBroadcastLE) Leader() int {
	if !m.done {
		return -1
	}
	v, _ := protocol.MaxIDNode(m.candidates)
	return v
}

// LeaderID returns the maximum candidate ID, agreed on once Done.
func (m *MaxBroadcastLE) LeaderID() int64 {
	_, id := protocol.MaxIDNode(m.candidates)
	return id
}

// DefaultBudget implements protocol.Budgeted.
func (m *MaxBroadcastLE) DefaultBudget() int64 { return m.budget }

// Run executes the broadcast until all nodes agree on the maximum ID or
// budget rounds elapse (budget <= 0 selects DefaultBudget).
func (m *MaxBroadcastLE) Run(budget int64) protocol.Result {
	if budget <= 0 {
		budget = m.budget
	}
	res := m.bc.Run(budget)
	m.done = res.Done
	res.Verify = m.Verify
	return res
}

// Verify checks the election postcondition after a Done run: every node
// learned the maximum candidate ID. It is an independent full scan, not a
// read of the completion counter.
func (m *MaxBroadcastLE) Verify() error {
	if !m.done {
		return errors.New("baseline: election not complete")
	}
	_, max := protocol.MaxIDNode(m.candidates)
	for v, got := range m.bc.Values() {
		if got != max {
			return fmt.Errorf("baseline: node %d outputs %d, want %d", v, got, max)
		}
	}
	return nil
}

var (
	_ protocol.LeaderRunner = (*BinarySearchLE)(nil)
	_ protocol.Budgeted     = (*BinarySearchLE)(nil)
	_ protocol.LeaderRunner = (*MaxBroadcastLE)(nil)
	_ protocol.Budgeted     = (*MaxBroadcastLE)(nil)
)
