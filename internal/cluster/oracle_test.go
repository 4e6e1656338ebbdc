package cluster

import (
	"cmp"
	"slices"

	"radionet/internal/graph"
	"radionet/internal/rng"
)

// fullSortPartition is the two-queue Partition(β) with every source
// sorted up front: the n virtual sources are sorted by (key, node) in one
// pass, then merged with the FIFO of edge pushes, scanning the
// neighbours of every popped node. PartitionScratch must match its
// Center, Parent, Dist and Delta exactly.
func fullSortPartition(g *graph.Graph, beta float64, r *rng.Rand) *Result {
	n := g.N()
	res := &Result{
		Beta:   beta,
		Center: make([]int32, n),
		Parent: make([]int32, n),
		Dist:   make([]int32, n),
		Delta:  make([]float64, n),
		g:      g,
	}
	src := make([]entry, n)
	fifo := make([]entry, 0, n)
	state := make([]uint8, n)
	for v := 0; v < n; v++ {
		res.Delta[v] = r.Exp(beta)
		src[v] = entry{key: -res.Delta[v], node: int32(v)}
	}
	slices.SortFunc(src, func(a, b entry) int {
		if c := cmp.Compare(a.key, b.key); c != 0 {
			return c
		}
		return cmp.Compare(a.node, b.node)
	})
	i, h := 0, 0
	for left := n; left > 0; {
		var e entry
		if h < len(fifo) && (i == n || fifo[h].key < src[i].key) {
			e = fifo[h]
			h++
			if state[e.node] == settled {
				continue
			}
		} else {
			e = src[i]
			i++
			if state[e.node] == settled {
				continue
			}
			res.Center[e.node], res.Parent[e.node], res.Dist[e.node] = e.node, -1, 0
		}
		v := e.node
		state[v] = settled
		left--
		c, d := res.Center[v], res.Dist[v]+1
		for _, w := range g.Neighbors(int(v)) {
			if state[w] == unseen {
				state[w] = queued
				res.Center[w], res.Parent[w], res.Dist[w] = c, v, d
				fifo = append(fifo, entry{key: e.key + 1, node: w})
			}
		}
	}
	return res
}

// heapPartition is the reference Partition(β): a multi-source Dijkstra
// on a binary min-heap that pushes one item per arc. PartitionScratch must
// match its Center, Dist and Delta exactly; Parent may differ only among
// equal-key candidates.
func heapPartition(g *graph.Graph, beta float64, r *rng.Rand) *Result {
	n := g.N()
	res := &Result{
		Beta:   beta,
		Center: make([]int32, n),
		Parent: make([]int32, n),
		Dist:   make([]int32, n),
		Delta:  make([]float64, n),
		g:      g,
	}
	settled := make([]bool, n)
	q := make([]heapItem, 0, n)
	for v := 0; v < n; v++ {
		res.Center[v] = -1
		res.Parent[v] = -1
		res.Delta[v] = r.Exp(beta)
	}
	for v := 0; v < n; v++ {
		q = append(q, heapItem{key: -res.Delta[v], node: int32(v), center: int32(v), parent: -1})
	}
	for i := n/2 - 1; i >= 0; i-- {
		heapDown(q, i, n)
	}
	remaining := n
	for remaining > 0 && len(q) > 0 {
		last := len(q) - 1
		q[0], q[last] = q[last], q[0]
		heapDown(q, 0, last)
		it := q[last]
		q = q[:last]
		v := it.node
		if settled[v] {
			continue
		}
		settled[v] = true
		remaining--
		res.Center[v] = it.center
		res.Parent[v] = it.parent
		res.Dist[v] = it.dist
		for _, w := range g.Neighbors(int(v)) {
			if !settled[w] {
				q = append(q, heapItem{
					key:    it.key + 1,
					node:   w,
					center: it.center,
					parent: v,
					dist:   it.dist + 1,
				})
				heapUp(q, len(q)-1)
			}
		}
	}
	return res
}

// heapItem is a priority-queue entry of heapPartition.
type heapItem struct {
	key    float64 // dist(u, v) - δ_v, to be minimized
	node   int32
	center int32
	parent int32
	dist   int32
}

// heapUp and heapDown replicate container/heap's sift moves over the
// concrete item type.

func heapUp(q []heapItem, j int) {
	for j > 0 {
		i := (j - 1) / 2 // parent
		if q[j].key >= q[i].key {
			break
		}
		q[i], q[j] = q[j], q[i]
		j = i
	}
}

func heapDown(q []heapItem, i0, n int) {
	i := i0
	for {
		j1 := 2*i + 1
		if j1 >= n || j1 < 0 { // j1 < 0 after int overflow
			break
		}
		j := j1 // left child
		if j2 := j1 + 1; j2 < n && q[j2].key < q[j1].key {
			j = j2 // right child
		}
		if q[j].key >= q[i].key {
			break
		}
		q[i], q[j] = q[j], q[i]
		i = j
	}
}
