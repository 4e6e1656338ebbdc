package graph

import (
	"fmt"
	"math"
	"slices"
	"strconv"

	"radionet/internal/rng"
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
	// Not fmt: under -race its printer pool drops entries at random.
	b := NewBuilder("gnp"+strconv.FormatFloat(p, 'f', 3, 64), n)
	// n-1 spanning-tree edges plus the G(n,p) edge count's mean and six
	// standard deviations (capped at all pairs), so no seed regrows the
	// edge buffer: the count is Binomial(n(n-1)/2, p).
	pairs := float64(n) * float64(n-1) / 2
	q := math.Min(math.Max(p, 0), 1)
	b.Reserve(n - 1 + int(math.Min(pairs, q*pairs+6*math.Sqrt(q*(1-q)*pairs))))
	for i := 1; i < n; i++ {
		b.AddEdge(i, r.Intn(i)) // spanning tree for connectivity
	}
	// Geometric skipping makes generation O(m) instead of O(n^2). A skip
	// of n² or more passes every remaining pair; stopping there keeps a
	// tiny p from overflowing the int conversion.
	if p > 0 && n > 1 {
		logq := math.Log1p(-minFloat(p, 1-1e-12))
		v, w := 1, -1
		for v < n {
			f := math.Floor(math.Log1p(-r.Float64()) / logq)
			if f >= float64(n)*float64(n) {
				break
			}
			w += 1 + int(f)
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
	// Flat cell lists make neighbour search O(n) expected: a counting
	// sort drops the points into square cells (pts holds cell c's points
	// at pts[start[c]:start[c+1]], in id order). Any side >= radius keeps
	// the 3x3 search exact; the 1/sqrt(n) floor caps the cell count near
	// n for tiny radii.
	cell := math.Max(radius, 1/math.Sqrt(float64(n)))
	cols := int(1/cell) + 1
	cellOf := func(i int) int { return int(ys[i]/cell)*cols + int(xs[i]/cell) }
	start := make([]int32, cols*cols+1)
	for i := 0; i < n; i++ {
		start[cellOf(i)+1]++
	}
	for c := 1; c < len(start); c++ {
		start[c] += start[c-1]
	}
	// start doubles as the fill cursor: each start[c] advances to
	// start[c+1], and one downward shift restores the cell starts.
	pts := make([]int32, n)
	for i := 0; i < n; i++ {
		c := cellOf(i)
		pts[start[c]] = int32(i)
		start[c]++
	}
	copy(start[1:], start[:len(start)-1])
	start[0] = 0
	b := NewBuilder(fmt.Sprintf("geometric%.3f", radius), n)
	// Expected pairs within radius ignoring the boundary, n²πr²/2, capped
	// at all pairs, plus slack.
	pairs := float64(n) * float64(n-1) / 2
	b.Reserve(int(math.Min(pairs, math.Pi*radius*radius*float64(n)*float64(n)/2)) + n)
	r2 := radius * radius
	for i := 0; i < n; i++ {
		cx, cy := int(xs[i]/cell), int(ys[i]/cell)
		for ny := max(cy-1, 0); ny <= min(cy+1, cols-1); ny++ {
			for nx := max(cx-1, 0); nx <= min(cx+1, cols-1); nx++ {
				c := ny*cols + nx
				for _, j := range pts[start[c]:start[c+1]] {
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
	return stitchNearest(b.Build(), xs, ys)
}

// stitchNearest makes a geometric graph on the points (xs[i], ys[i])
// connected: it repeatedly joins the component of node 0 to the
// geometrically nearest node outside it.
func stitchNearest(g *Graph, xs, ys []float64) *Graph {
	if g.IsConnected() {
		return g
	}
	n := g.N()
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

// RandomRegular returns a uniformly random connected d-regular simple
// graph on n nodes; n*d must be even and d < n. At d = 2 that is a random
// Hamiltonian cycle. Otherwise it redraws configuration-model pairings
// until one is simple and connected, and panics after 200 failures
// (likely at d = 1 with n > 2, and from d = 4 up).
func RandomRegular(n, d int, r *rng.Rand) *Graph {
	if d < 1 || d >= n || n*d%2 != 0 {
		panic("graph: RandomRegular requires 1 <= d < n with n*d even")
	}
	if d == 2 {
		// A pairing conditioned on simple and connected is uniform over
		// the Hamiltonian cycles, and each cycle closes 2n permutations.
		perm := r.Perm(n)
		b := NewBuilder("regular2", n)
		for i, v := range perm {
			b.AddEdge(v, perm[(i+1)%n])
		}
		return b.Build()
	}
	for attempt := 0; ; attempt++ {
		if attempt == 200 {
			panic("graph: RandomRegular failed to generate a connected simple graph")
		}
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
		if ok {
			if g := b.Build(); g.IsConnected() {
				return g
			}
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
