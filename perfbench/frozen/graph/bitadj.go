// Dense-adjacency bitset layer: per-node neighbor bitmasks for the
// high-degree vertices, so the radio engine's transmit-marking pass can OR
// whole 64-node words instead of walking a long CSR neighbor list. Low-
// degree vertices keep the CSR representation — a row costs O(n/64) words
// to scan, so it only beats the neighbor walk above a degree threshold.
package graph

import "math/bits"

// AdjBits is the dense-adjacency companion of a Graph: nodes whose degree
// is at least the threshold get a full neighbor bitmask (one bit per
// potential neighbor, ceil(n/64) words); all other nodes stay CSR-only.
// Built once per graph (Graph.DenseAdj caches it) and immutable after
// construction, so any number of engines may share one.
type AdjBits struct {
	words     int
	threshold int
	rowIdx    []int32  // node -> row number, -1 for CSR-only nodes
	bits      []uint64 // dense rows, rows*words, row r at bits[r*words:]
	rows      int
}

// DenseThreshold returns the degree above which a dense row pays off for
// an n-node graph: a row OR touches ceil(n/64) words, a CSR walk touches
// deg entries, so the crossover sits near n/64 (floored at 64 so tiny
// graphs never build rows that a short neighbor list beats). The resulting
// total row memory is bounded by 2m/threshold rows of n/64 words each,
// i.e. at most ~16m bytes — the same order as the CSR arrays themselves.
func DenseThreshold(n int) int {
	t := n / 64
	if t < 64 {
		t = 64
	}
	return t
}

// Words returns the number of 64-bit words per row: ceil(n/64).
func (a *AdjBits) Words() int { return a.words }

// Threshold returns the degree threshold rows were built with.
func (a *AdjBits) Threshold() int { return a.threshold }

// Rows returns the number of dense rows built.
func (a *AdjBits) Rows() int { return a.rows }

// Row returns node v's neighbor bitmask, or nil when v is CSR-only (its
// degree is below the threshold). The slice aliases the layer's storage
// and must not be modified. A nil AdjBits has no rows.
func (a *AdjBits) Row(v int) []uint64 {
	if a == nil || a.rowIdx[v] < 0 {
		return nil
	}
	r := int(a.rowIdx[v])
	return a.bits[r*a.words : (r+1)*a.words]
}

// NewAdjBits builds the dense layer for g with the given degree threshold
// (<= 0 selects DenseThreshold(g.N())).
func NewAdjBits(g *Graph, threshold int) *AdjBits {
	n := g.N()
	if threshold <= 0 {
		threshold = DenseThreshold(n)
	}
	a := &AdjBits{
		words:     (n + 63) / 64,
		threshold: threshold,
		rowIdx:    make([]int32, n),
	}
	for v := 0; v < n; v++ {
		if g.Degree(v) >= threshold {
			a.rowIdx[v] = int32(a.rows)
			a.rows++
		} else {
			a.rowIdx[v] = -1
		}
	}
	if a.rows == 0 {
		return a
	}
	a.bits = make([]uint64, a.rows*a.words)
	for v := 0; v < n; v++ {
		r := a.rowIdx[v]
		if r < 0 {
			continue
		}
		row := a.bits[int(r)*a.words:]
		for _, u := range g.Neighbors(v) {
			row[u>>6] |= 1 << (uint(u) & 63)
		}
	}
	return a
}

// PopCount returns the number of set bits in row r of the layer — a
// checking helper (row popcounts must equal degrees).
func (a *AdjBits) popCount(row []uint64) int {
	c := 0
	for _, w := range row {
		c += bits.OnesCount64(w)
	}
	return c
}

// DenseAdj returns the graph's cached dense-adjacency layer, building it
// on first use with the DenseThreshold degree cutoff. Safe for concurrent
// callers (campaign trials share one Graph across workers); the layer is
// immutable once built.
func (g *Graph) DenseAdj() *AdjBits {
	g.denseOnce.Do(g.buildDense)
	return g.dense
}

func (g *Graph) buildDense() { g.dense = NewAdjBits(g, 0) }
