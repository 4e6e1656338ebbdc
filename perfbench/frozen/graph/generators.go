package graph

import (
	"fmt"
	"math"
	"slices"

	"radionet/perfbench/frozen/rng"
)

// Path returns the path graph on n nodes (diameter n-1).
func Path(n int) *Graph {
	b := NewBuilder("path", n)
	b.Reserve(n - 1)
	for i := 0; i+1 < n; i++ {
		b.AddEdge(i, i+1)
	}
	return b.Build()
}

// Cycle returns the cycle on n nodes (diameter floor(n/2)); n must be >= 3.
func Cycle(n int) *Graph {
	if n < 3 {
		panic("graph: Cycle requires n >= 3")
	}
	b := NewBuilder("cycle", n)
	b.Reserve(n)
	for i := 0; i < n; i++ {
		b.AddEdge(i, (i+1)%n)
	}
	return b.Build()
}

// Star returns the star on n nodes with center 0 (diameter 2 for n >= 3).
func Star(n int) *Graph {
	b := NewBuilder("star", n)
	b.Reserve(n - 1)
	for i := 1; i < n; i++ {
		b.AddEdge(0, i)
	}
	return b.Build()
}

// Complete returns the complete graph on n nodes.
func Complete(n int) *Graph {
	b := NewBuilder("complete", n)
	b.Reserve(n * (n - 1) / 2)
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			b.AddEdge(i, j)
		}
	}
	return b.Build()
}

// Grid returns the rows x cols grid graph (diameter rows+cols-2).
func Grid(rows, cols int) *Graph {
	if rows < 1 || cols < 1 {
		panic("graph: Grid requires positive dimensions")
	}
	b := NewBuilder(fmt.Sprintf("grid%dx%d", rows, cols), rows*cols)
	b.Reserve(rows*(cols-1) + (rows-1)*cols)
	id := func(r, c int) int { return r*cols + c }
	for r := 0; r < rows; r++ {
		for c := 0; c < cols; c++ {
			if c+1 < cols {
				b.AddEdge(id(r, c), id(r, c+1))
			}
			if r+1 < rows {
				b.AddEdge(id(r, c), id(r+1, c))
			}
		}
	}
	return b.Build()
}

// Hypercube returns the dim-dimensional hypercube on 2^dim nodes
// (diameter dim).
func Hypercube(dim int) *Graph {
	if dim < 0 || dim > 24 {
		panic("graph: Hypercube dimension out of range [0,24]")
	}
	n := 1 << dim
	b := NewBuilder(fmt.Sprintf("hypercube%d", dim), n)
	b.Reserve(n * dim / 2)
	for v := 0; v < n; v++ {
		for bit := 0; bit < dim; bit++ {
			u := v ^ (1 << bit)
			if v < u {
				b.AddEdge(v, u)
			}
		}
	}
	return b.Build()
}

// BalancedTree returns the complete arity-ary tree of the given depth
// (root at node 0, diameter 2*depth).
func BalancedTree(arity, depth int) *Graph {
	if arity < 1 || depth < 0 {
		panic("graph: BalancedTree requires arity >= 1, depth >= 0")
	}
	n := 1
	layer := 1
	for d := 0; d < depth; d++ {
		layer *= arity
		n += layer
	}
	b := NewBuilder(fmt.Sprintf("tree%d^%d", arity, depth), n)
	b.Reserve(n - 1)
	for v := 1; v < n; v++ {
		b.AddEdge(v, (v-1)/arity)
	}
	return b.Build()
}

// PathOfCliques returns k cliques of size s arranged in a chain: clique i
// is joined to clique i+1 by a single bridge edge between designated port
// nodes. This is the workhorse long-diameter family of the experiments: it
// lets n = k*s stay fixed while D = 2k-1 varies with k, and the dense
// cliques generate heavy radio collisions.
func PathOfCliques(k, s int) *Graph {
	if k < 1 || s < 1 {
		panic("graph: PathOfCliques requires k, s >= 1")
	}
	b := NewBuilder(fmt.Sprintf("cliquepath%dx%d", k, s), k*s)
	b.Reserve(k*s*(s-1)/2 + k - 1)
	for c := 0; c < k; c++ {
		base := c * s
		for i := 0; i < s; i++ {
			for j := i + 1; j < s; j++ {
				b.AddEdge(base+i, base+j)
			}
		}
		if c+1 < k {
			// Bridge from the last node of clique c to the first node of
			// clique c+1.
			b.AddEdge(base+s-1, base+s)
		}
	}
	return b.Build()
}

// Caterpillar returns a spine path of length spine with legs pendant
// nodes attached to every spine node (n = spine*(1+legs)).
func Caterpillar(spine, legs int) *Graph {
	if spine < 1 || legs < 0 {
		panic("graph: Caterpillar requires spine >= 1, legs >= 0")
	}
	n := spine * (1 + legs)
	b := NewBuilder(fmt.Sprintf("caterpillar%dx%d", spine, legs), n)
	b.Reserve(n - 1)
	for i := 0; i+1 < spine; i++ {
		b.AddEdge(i, i+1)
	}
	for i := 0; i < spine; i++ {
		for l := 0; l < legs; l++ {
			b.AddEdge(i, spine+i*legs+l)
		}
	}
	return b.Build()
}

// Dumbbell returns two cliques of size s joined by a path of pathLen
// intermediate nodes (n = 2s + pathLen).
func Dumbbell(s, pathLen int) *Graph {
	if s < 1 || pathLen < 0 {
		panic("graph: Dumbbell requires s >= 1, pathLen >= 0")
	}
	n := 2*s + pathLen
	b := NewBuilder(fmt.Sprintf("dumbbell%d+%d", s, pathLen), n)
	b.Reserve(s*(s-1) + pathLen + 1)
	clique := func(base int) {
		for i := 0; i < s; i++ {
			for j := i + 1; j < s; j++ {
				b.AddEdge(base+i, base+j)
			}
		}
	}
	clique(0)
	clique(s + pathLen)
	prev := s - 1
	for i := 0; i < pathLen; i++ {
		b.AddEdge(prev, s+i)
		prev = s + i
	}
	b.AddEdge(prev, s+pathLen)
	return b.Build()
}

// RandomTree returns a uniform random recursive tree on n nodes: node i
// attaches to a uniformly random earlier node. Expected diameter Θ(log n).
func RandomTree(n int, r *rng.Rand) *Graph {
	b := NewBuilder("randtree", n)
	b.Reserve(n - 1)
	for i := 1; i < n; i++ {
		b.AddEdge(i, r.Intn(i))
	}
	return b.Build()
}

// Gnp returns an Erdős–Rényi G(n, p) graph augmented with a random
// spanning tree so that it is always connected. For p above the
// connectivity threshold the extra tree edges are a vanishing fraction.
func Gnp(n int, p float64, r *rng.Rand) *Graph {
	b := NewBuilder(fmt.Sprintf("gnp%.3f", p), n)
	// n-1 spanning-tree edges plus the expected G(n,p) edge count; the
	// geometric-skip loop may overshoot slightly, which just falls back to
	// one append growth step.
	b.Reserve(n - 1 + int(p*float64(n)*float64(n-1)/2))
	for i := 1; i < n; i++ {
		b.AddEdge(i, r.Intn(i)) // spanning tree for connectivity
	}
	// Geometric skipping makes generation O(m) instead of O(n^2).
	if p > 0 && n > 1 {
		logq := math.Log1p(-minFloat(p, 1-1e-12))
		v, w := 1, -1
		for v < n {
			skip := int(math.Floor(math.Log1p(-r.Float64()) / logq))
			w += 1 + skip
			for w >= v && v < n {
				w -= v
				v++
			}
			if v < n {
				b.AddEdge(v, w)
			}
		}
	}
	return b.Build()
}

func minFloat(a, b float64) float64 {
	if a < b {
		return a
	}
	return b
}

// RandomGeometric returns a unit-disk graph: n points uniform in the unit
// square, edges between pairs within the given radius. Components are then
// stitched together by connecting each non-root component to its nearest
// outside point, so the result is always connected (the stitch edges model
// sparse long-range relays and are a tiny fraction of m for radii near the
// connectivity threshold). This is the classic model of an ad-hoc wireless
// deployment.
func RandomGeometric(n int, radius float64, r *rng.Rand) *Graph {
	if n < 1 || radius <= 0 {
		panic("graph: RandomGeometric requires n >= 1, radius > 0")
	}
	xs := make([]float64, n)
	ys := make([]float64, n)
	for i := range xs {
		xs[i] = r.Float64()
		ys[i] = r.Float64()
	}
	b := NewBuilder(fmt.Sprintf("geometric%.3f", radius), n)
	// Grid-bucket the points so neighbor search is O(n) expected.
	cell := radius
	cols := int(1/cell) + 1
	buckets := make(map[int][]int32, n)
	key := func(cx, cy int) int { return cy*cols + cx }
	for i := 0; i < n; i++ {
		cx, cy := int(xs[i]/cell), int(ys[i]/cell)
		buckets[key(cx, cy)] = append(buckets[key(cx, cy)], int32(i))
	}
	r2 := radius * radius
	for i := 0; i < n; i++ {
		cx, cy := int(xs[i]/cell), int(ys[i]/cell)
		for dx := -1; dx <= 1; dx++ {
			for dy := -1; dy <= 1; dy++ {
				for _, j := range buckets[key(cx+dx, cy+dy)] {
					if int(j) <= i {
						continue
					}
					ddx, ddy := xs[i]-xs[j], ys[i]-ys[j]
					if ddx*ddx+ddy*ddy <= r2 {
						b.AddEdge(i, int(j))
					}
				}
			}
		}
	}
	g := b.Build()
	if g.IsConnected() {
		return g
	}
	// Stitch components: repeatedly connect the component of node 0 to the
	// geometrically nearest node outside it.
	extra := make([][2]int, 0, 8)
	for {
		dist := g.BFS(0)
		bestI, bestJ, bestD := -1, -1, math.Inf(1)
		for j := 0; j < n; j++ {
			if dist[j] != Unreached {
				continue
			}
			for i := 0; i < n; i++ {
				if dist[i] == Unreached {
					continue
				}
				ddx, ddy := xs[i]-xs[j], ys[i]-ys[j]
				if d := ddx*ddx + ddy*ddy; d < bestD {
					bestD, bestI, bestJ = d, i, j
				}
			}
		}
		if bestI < 0 {
			break
		}
		extra = append(extra, [2]int{bestI, bestJ})
		nb := NewBuilder(g.name, n)
		g.Edges(func(u, v int) bool { nb.AddEdge(u, v); return true })
		for _, e := range extra {
			nb.AddEdge(e[0], e[1])
		}
		g = nb.Build()
		if g.IsConnected() {
			break
		}
	}
	return g
}

// RandomRegular returns a random d-regular simple graph on n nodes via the
// configuration model with rejection, then stitches connectivity the same
// way as RandomGeometric if needed. n*d must be even and d < n.
func RandomRegular(n, d int, r *rng.Rand) *Graph {
	if d < 1 || d >= n || n*d%2 != 0 {
		panic("graph: RandomRegular requires 1 <= d < n with n*d even")
	}
	for attempt := 0; ; attempt++ {
		stubs := make([]int32, 0, n*d)
		for v := 0; v < n; v++ {
			for i := 0; i < d; i++ {
				stubs = append(stubs, int32(v))
			}
		}
		r.Shuffle(len(stubs), func(i, j int) { stubs[i], stubs[j] = stubs[j], stubs[i] })
		ok := true
		seen := make(map[int64]bool, n*d/2)
		b := NewBuilder(fmt.Sprintf("regular%d", d), n)
		b.Reserve(n * d / 2)
		for i := 0; i < len(stubs); i += 2 {
			u, v := stubs[i], stubs[i+1]
			if u == v {
				ok = false
				break
			}
			lo, hi := u, v
			if lo > hi {
				lo, hi = hi, lo
			}
			k := int64(lo)<<32 | int64(hi)
			if seen[k] {
				ok = false
				break
			}
			seen[k] = true
			b.AddEdge(int(u), int(v))
		}
		if !ok {
			if attempt > 200 {
				panic("graph: RandomRegular failed to generate a simple graph")
			}
			continue
		}
		g := b.Build()
		if g.IsConnected() {
			return g
		}
	}
}

// SortedDegrees returns the degree sequence in non-increasing order
// (useful in tests).
func (g *Graph) SortedDegrees() []int {
	ds := make([]int, g.N())
	for v := range ds {
		ds[v] = g.Degree(v)
	}
	slices.SortFunc(ds, func(a, b int) int { return b - a })
	return ds
}
