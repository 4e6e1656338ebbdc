// Id-difference band layer: on a graph whose every edge {u, u+d} uses
// one of at most two id differences d (paths, cycles, grids), the edges
// of one difference form a bitset, and the radio engine's
// transmit-marking pass can shift and OR whole 64-node words of it
// instead of walking each transmitter's neighbor list.
package graph

import "slices"

// MaxBands is the most id differences a band layer holds: two cover
// paths, cycles and grids. Graphs with more differences, such as cliques
// chained by ids, take the CSR walk, which is faster on the small ones
// (DESIGN.md §5). A band graph's degree is at most 2*MaxBands, below
// DenseThreshold's floor of 64, so no graph has both a band layer and
// dense rows.
const MaxBands = 2

// Bands is the band layer of a Graph: for each id difference d that an
// edge uses, one bitset whose bit u is set iff {u, u+d} is an edge. Every
// edge lies in exactly one band. Each bitset is stored with Pad zero
// words on either side, so a word loop may read up to Pad words past
// either end of the node range without a bounds branch. Built once per
// graph (Graph.Bands caches it) and immutable after construction, so any
// number of engines may share one.
type Bands struct {
	diffs []int // ascending
	pad   int
	bits  []uint64 // band i at bits[i*stride:], stride = ceil(n/64) + 2*pad
}

// Len returns the number of bands.
func (b *Bands) Len() int { return len(b.diffs) }

// Diff returns band i's id difference.
func (b *Bands) Diff(i int) int { return b.diffs[i] }

// Pad returns the number of zero words on either side of each band's
// bitset: MaxDiff/64 + 1, so a shift by any band's difference stays
// inside the padding.
func (b *Bands) Pad() int { return b.pad }

// Padded returns band i's padded bitset: bit u of the graph is bit u&63
// of word Pad()+u>>6. The slice aliases the layer's storage and must not
// be modified.
func (b *Bands) Padded(i int) []uint64 {
	stride := len(b.bits) / len(b.diffs)
	return b.bits[i*stride : (i+1)*stride]
}

// newBands builds the band layer of g, or returns nil when g has no edge
// or its edges use more than MaxBands id differences. The scan stops at
// the first difference past the limit, so a graph with random ids reads
// only a few neighbor lists.
func newBands(g *Graph) *Bands {
	n := g.N()
	var diffs []int
	for u := 0; u < n; u++ {
		for _, w := range g.Neighbors(u) {
			if d := int(w) - u; d > 0 && !slices.Contains(diffs, d) {
				if len(diffs) == MaxBands {
					return nil
				}
				diffs = append(diffs, d)
			}
		}
	}
	if len(diffs) == 0 {
		return nil
	}
	slices.Sort(diffs)
	b := &Bands{diffs: diffs, pad: diffs[len(diffs)-1]>>6 + 1}
	stride := (n+63)/64 + 2*b.pad
	b.bits = make([]uint64, len(diffs)*stride)
	for u := 0; u < n; u++ {
		for _, w := range g.Neighbors(u) {
			if d := int(w) - u; d > 0 {
				i := slices.Index(diffs, d)
				b.bits[i*stride+b.pad+u>>6] |= 1 << (uint(u) & 63)
			}
		}
	}
	return b
}

// Bands returns the graph's cached band layer, building it on first use;
// nil when the graph is not a band graph (see newBands). Safe for
// concurrent callers; the layer is immutable once built.
func (g *Graph) Bands() *Bands {
	g.bandsOnce.Do(func() { g.bands = newBands(g) })
	return g.bands
}
