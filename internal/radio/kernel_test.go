package radio

import (
	"slices"
	"testing"

	"radionet/internal/graph"
	"radionet/internal/rng"
)

// markRound sets tx as the engine's transmit list (and txw, as Step
// does) and runs one marking pass — markWave (with the shard merge) when
// sharded, mark otherwise — bypassing Act, classify and clear.
func markRound(e *Engine, tx []int32) {
	for _, u := range e.transmit {
		e.txw[uint32(u)>>6] &^= 1 << (uint32(u) & 63)
	}
	e.transmit = append(e.transmit[:0], tx...)
	e.setTxw()
	e.round++
	if e.shards > 1 {
		e.markWave()
	} else {
		e.mark()
	}
}

// TestDirtyCoversMarkedWords pins the dirty summary's contract: after
// marking (and the shard merge at k > 1) every word with onair set has its
// dirty bit and no bit past the last word is set — the summary may be a
// superset, never a subset — and clearRound leaves the engine's onair,
// collided and dirty, and every spawned shard's private arena, all zero.
// On a graph with neither dense rows nor bands the unsharded summary is
// exact: its bit w is set iff onair word w is nonzero (summarize).
// The Gnp graphs mix dense and CSR rows; n = 200 leaves the dirty summary
// a partial word, n = 4096 fills exactly one word and n = 4200 spills
// into a second. Their rounds transmit from dense rows only, CSR rows
// only, both, and a random 5% of nodes. The band graphs (graph.Bands),
// a grid of 32 words and a cycle whose wrap edge spans the whole id
// range, transmit from one node, from both ends, and from a random 5%
// and 40% of nodes. The CSR-only graphs, a random tree of 157 words (3
// summary words, the last one partial) and a unit-disk graph, transmit
// from one node, from none, and from a random 5% and 40% of nodes.
func TestDirtyCoversMarkedWords(t *testing.T) {
	graphs := []*graph.Graph{
		graph.Gnp(200, 0.32, rng.New(5)),
		graph.Gnp(4096, 0.016, rng.New(6)),
		graph.Gnp(4200, 0.0155, rng.New(7)),
	}
	for _, g := range graphs {
		denseTx, csrTx := rowKinds(g)
		if len(denseTx) < 4 || len(csrTx) < 4 {
			t.Fatalf("%s: %d dense and %d CSR rows, want a mix", g, len(denseTx), len(csrTx))
		}
		both := slices.Concat(denseTx[:4], csrTx[:4])
		slices.Sort(both)
		checkDirty(t, g, append([][]int32{denseTx[:3], csrTx[:3], both}, benchTxRounds(g.N(), 3, 0.05, 9)...))
	}
	for _, g := range []*graph.Graph{graph.Grid(16, 128), graph.Cycle(4200)} {
		if g.Bands() == nil {
			t.Fatalf("%s: no band layer", g)
		}
		n := int32(g.N())
		rounds := [][]int32{{n / 2}, {0, n - 1}, {}}
		rounds = append(rounds, benchTxRounds(g.N(), 2, 0.05, 9)...)
		checkDirty(t, g, append(rounds, benchTxRounds(g.N(), 2, 0.4, 10)...))
	}
	for _, g := range []*graph.Graph{graph.RandomTree(10000, rng.New(8)), graph.RandomGeometric(3000, 0.04, rng.New(9))} {
		if g.Bands() != nil || g.DenseAdj().Rows() > 0 {
			t.Fatalf("%s: want neither bands nor dense rows", g)
		}
		rounds := [][]int32{{int32(g.N()) - 1}, {}}
		rounds = append(rounds, benchTxRounds(g.N(), 2, 0.05, 9)...)
		checkDirty(t, g, append(rounds, benchTxRounds(g.N(), 2, 0.4, 10)...))
	}
}

// checkDirty marks each round's transmitters on g, unsharded and at
// three shards, and checks the dirty summary against onair and the
// cleared state after clearRound (see TestDirtyCoversMarkedWords).
func checkDirty(t *testing.T, g *graph.Graph, rounds [][]int32) {
	t.Helper()
	for _, k := range []int{1, 3} {
		e := benchEngine(g)
		if k > 1 {
			e.SetShards(k)
		}
		exact := e.shards == 1 && e.dense == nil && e.bands == nil
		for i, tx := range rounds {
			markRound(e, tx)
			for w, o := range e.onair {
				d := e.dirty[w>>6]&(1<<(uint(w)&63)) != 0
				if o != 0 && !d {
					t.Fatalf("%s k=%d round %d: onair word %d set but not dirty", g, k, i, w)
				}
				if exact && o == 0 && d {
					t.Fatalf("%s k=%d round %d: onair word %d zero but dirty", g, k, i, w)
				}
			}
			for b := e.words; b < len(e.dirty)*64; b++ {
				if e.dirty[b>>6]&(1<<(uint(b)&63)) != 0 {
					t.Fatalf("%s k=%d round %d: dirty bit %d past the last word (%d words)", g, k, i, b, e.words)
				}
			}
			e.clearRound()
			for s := range e.sh {
				st := &e.sh[s]
				for _, arr := range [][]uint64{st.onair, st.collided, st.dirty} {
					if j := slices.IndexFunc(arr, func(x uint64) bool { return x != 0 }); j >= 0 {
						t.Fatalf("%s k=%d round %d: shard %d arena word %d not cleared", g, k, i, s, j)
					}
				}
			}
		}
		e.Close()
	}
}

// TestResolveIgnoresStaleInbox checks that a singleton listener receives
// the message of its one transmitting neighbor when its inbox entry
// holds an earlier round's sender (or, sharded, was never written),
// unsharded and at two shards. On a CSR-only graph, a path with chords
// {10, 12} and {10, 13}, listener 10 collides in round 0, which leaves
// inbox[10] naming transmit-list index 1, and in round 1 hears node 13
// alone, at index 2, while nodes 0 and 5 take indices 0 and 1. On a
// graph with a dense row, a hub joined to every node of a path, leaf 0
// hears its path neighbor 1 in round 0 and only the hub in round 1, when
// node 30 holds the index inbox[0] was given.
func TestResolveIgnoresStaleInbox(t *testing.T) {
	b := graph.NewBuilder("path-chords", 130)
	for v := 1; v < 130; v++ {
		b.AddEdge(v-1, v)
	}
	b.AddEdge(10, 12)
	b.AddEdge(10, 13)
	csr := b.Build()
	b = graph.NewBuilder("path-hub", 71)
	for v := 1; v < 70; v++ {
		b.AddEdge(v-1, v)
	}
	for v := range 70 {
		b.AddEdge(v, 70)
	}
	hub := b.Build()
	cases := []struct {
		g        *graph.Graph
		dense    bool
		listener int
		tx       [][]int32 // transmitters of rounds 0 and 1
		want     []int64   // values the listener hears: sender id + 1
	}{
		{csr, false, 10, [][]int32{{9, 11}, {0, 5, 13}}, []int64{14}},
		{hub, true, 0, [][]int32{{1}, {30, 70}}, []int64{2, 71}},
	}
	for _, c := range cases {
		if c.g.Bands() != nil || (c.g.DenseAdj().Rows() > 0) != c.dense {
			t.Fatalf("%s: bands %v, dense rows %d", c.g, c.g.Bands() != nil, c.g.DenseAdj().Rows())
		}
		for _, k := range []int{1, 2} {
			nodes := make([]*scripted, c.g.N())
			rn := make([]Node, c.g.N())
			for v := range nodes {
				nodes[v] = &scripted{t: t, plan: make([]bool, len(c.tx)), val: int64(v) + 1}
				rn[v] = nodes[v]
			}
			for r, tx := range c.tx {
				for _, u := range tx {
					nodes[u].plan[r] = true
				}
			}
			e := NewNodeEngine(c.g, rn)
			e.SetShards(k)
			if e.shards != k {
				t.Fatalf("%s: %d shards, want %d", c.g, e.shards, k)
			}
			for range c.tx {
				e.Step()
			}
			e.Close()
			if got := nodes[c.listener].heard; !slices.Equal(got, c.want) {
				t.Errorf("%s k=%d: node %d heard %v, want %v", c.g, k, c.listener, got, c.want)
			}
		}
	}
}

// TestInboxOnlyWhereMarkCSRRuns pins when the engine holds an inbox: only
// an unsharded engine over a graph without bands and with at least one
// CSR-only node, where markCSR writes it. A band graph, an all-dense
// graph and a sharded engine hold none, and SetShards(1) after a sharded
// setting restores it.
func TestInboxOnlyWhereMarkCSRRuns(t *testing.T) {
	b := graph.NewBuilder("path-hub", 131)
	for v := 1; v < 130; v++ {
		b.AddEdge(v-1, v)
	}
	for v := range 130 {
		b.AddEdge(v, 130)
	}
	cases := []struct {
		g     *graph.Graph
		bands bool
		dense int  // dense rows
		inbox bool // unsharded
	}{
		{graph.Path(200), true, 0, false},
		{graph.Complete(130), false, 130, false},
		{graph.RandomTree(200, rng.New(1)), false, 0, true},
		{b.Build(), false, 1, true}, // only the hub has a dense row
	}
	for _, c := range cases {
		if (c.g.Bands() != nil) != c.bands || c.g.DenseAdj().Rows() != c.dense {
			t.Fatalf("%s: bands %v, dense rows %d", c.g, c.g.Bands() != nil, c.g.DenseAdj().Rows())
		}
		e := NewEngine(c.g, nil)
		check := func(when string, want bool) {
			t.Helper()
			if got := e.inbox != nil; got != want || want && len(e.inbox) != c.g.N() {
				t.Errorf("%s %s: inbox of %d entries (nil %v), want nil %v", c.g, when, len(e.inbox), !got, !want)
			}
		}
		check("new", c.inbox)
		e.SetShards(2)
		if e.shards != 2 {
			t.Fatalf("%s: %d shards, want 2", c.g, e.shards)
		}
		check("at 2 shards", false)
		e.SetShards(1)
		check("back at 1 shard", c.inbox)
		e.Close()
	}
}
