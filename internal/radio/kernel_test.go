package radio

import (
	"slices"
	"testing"

	"radionet/internal/graph"
	"radionet/internal/rng"
)

// markRound sets tx as the engine's transmit list and runs one marking
// pass — markWave (with the shard merge) when sharded, markAll otherwise —
// bypassing Act, classify and clear.
func markRound(e *Engine, tx []int32) {
	for _, u := range e.transmit {
		e.txw[uint32(u)>>6] &^= 1 << (uint32(u) & 63)
	}
	e.transmit = append(e.transmit[:0], tx...)
	for _, u := range tx {
		e.txw[uint32(u)>>6] |= 1 << (uint32(u) & 63)
	}
	e.round++
	if e.shards > 1 {
		e.markWave()
	} else {
		e.markAll()
	}
}

// TestDirtyCoversMarkedWords pins the dirty summary's contract: after
// marking (and the shard merge at k > 1) every word with onair set has its
// dirty bit and no bit past the last word is set — the summary may be a
// superset, never a subset — and clearRound leaves the engine's onair,
// collided and dirty, and every spawned shard's private arena, all zero.
// Every graph mixes dense and CSR rows; n = 200 leaves the dirty summary
// a partial word, n = 4096 fills exactly one word and n = 4200 spills
// into a second. Rounds transmit from dense rows only, CSR rows only,
// both, and a random 5% of nodes.
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
		rounds := append([][]int32{denseTx[:3], csrTx[:3], both}, benchTxRounds(g.N(), 3, 0.05, 9)...)
		for _, k := range []int{1, 3} {
			e := benchEngine(g)
			if k > 1 {
				e.SetShards(k)
			}
			for i, tx := range rounds {
				markRound(e, tx)
				for w, o := range e.onair {
					if o != 0 && e.dirty[w>>6]&(1<<(uint(w)&63)) == 0 {
						t.Fatalf("%s k=%d round %d: onair word %d set but not dirty", g, k, i, w)
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
}
