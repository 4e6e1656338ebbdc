package graph

// Unreached marks nodes not reached by a BFS.
const Unreached int32 = -1

// BFS returns the distance in hops from src to every node, with Unreached
// for nodes in other components.
func (g *Graph) BFS(src int) []int32 {
	return g.MultiBFS([]int{src})
}

// MultiBFS returns, for every node, the hop distance to the nearest source.
// Nodes unreachable from all sources get Unreached.
func (g *Graph) MultiBFS(srcs []int) []int32 {
	dist := make([]int32, g.N())
	for i := range dist {
		dist[i] = Unreached
	}
	queue := make([]int32, 0, len(srcs))
	for _, s := range srcs {
		if dist[s] == Unreached {
			dist[s] = 0
			queue = append(queue, int32(s))
		}
	}
	for len(queue) > 0 {
		v := queue[0]
		queue = queue[1:]
		dv := dist[v]
		for _, w := range g.Neighbors(int(v)) {
			if dist[w] == Unreached {
				dist[w] = dv + 1
				queue = append(queue, w)
			}
		}
	}
	return dist
}

// BFSTree returns (dist, parent) for a BFS from src. The parent of src and
// of unreachable nodes is -1. Ties are broken toward the smallest-id
// parent, so the tree (and every root-to-node path in it) is canonical:
// independent runs produce identical trees.
func (g *Graph) BFSTree(src int) (dist, parent []int32) {
	n := g.N()
	dist = make([]int32, n)
	parent = make([]int32, n)
	for i := range dist {
		dist[i] = Unreached
		parent[i] = -1
	}
	dist[src] = 0
	queue := make([]int32, 0, 64)
	queue = append(queue, int32(src))
	for len(queue) > 0 {
		v := queue[0]
		queue = queue[1:]
		dv := dist[v]
		// Neighbors are sorted ascending, and the queue pops lowest
		// discovery order first, so the first discoverer of a node is the
		// smallest-id eligible parent at the previous layer.
		for _, w := range g.Neighbors(int(v)) {
			if dist[w] == Unreached {
				dist[w] = dv + 1
				parent[w] = v
				queue = append(queue, w)
			}
		}
	}
	return dist, parent
}

// IsConnected reports whether the graph is connected. The empty graph is
// considered connected.
func (g *Graph) IsConnected() bool {
	if g.N() == 0 {
		return true
	}
	dist := g.BFS(0)
	for _, d := range dist {
		if d == Unreached {
			return false
		}
	}
	return true
}

// Eccentricity returns the largest hop distance from v to any node.
// It panics if the graph is disconnected.
func (g *Graph) Eccentricity(v int) int {
	dist := g.BFS(v)
	ecc := int32(0)
	for _, d := range dist {
		if d == Unreached {
			panic("graph: Eccentricity on disconnected graph")
		}
		if d > ecc {
			ecc = d
		}
	}
	return int(ecc)
}

// Diameter computes the exact diameter with an all-pairs BFS, O(n·m).
// It panics if the graph is disconnected. Use DiameterEstimate for large
// graphs.
func (g *Graph) Diameter() int {
	diam := 0
	for v := 0; v < g.N(); v++ {
		if e := g.Eccentricity(v); e > diam {
			diam = e
		}
	}
	return diam
}

// DiameterEstimate returns a lower bound on the diameter obtained by
// iterated double sweeps, and is exact on trees. For the structured
// families used in the experiments it matches the true diameter. It panics
// if the graph is disconnected.
func (g *Graph) DiameterEstimate() int {
	if g.N() == 0 {
		return 0
	}
	// Double sweep: BFS from 0, then from the farthest node found, a few
	// times. Each sweep can only improve the bound.
	best := 0
	start := 0
	for sweep := 0; sweep < 4; sweep++ {
		dist := g.BFS(start)
		far, fd := start, int32(0)
		for v, d := range dist {
			if d == Unreached {
				panic("graph: DiameterEstimate on disconnected graph")
			}
			if d > fd {
				fd = d
				far = v
			}
		}
		if int(fd) > best {
			best = int(fd)
		}
		if far == start {
			break
		}
		start = far
	}
	return best
}

// ShortestPath returns the canonical shortest path from u to v, inclusive
// of both endpoints. The path is derived from the canonical BFS tree of u
// (smallest-id parent tie-breaking), matching the paper's "fix a canonical
// shortest path between each pair" convention. Returns nil if v is
// unreachable from u.
func (g *Graph) ShortestPath(u, v int) []int32 {
	dist, parent := g.BFSTree(u)
	if dist[v] == Unreached {
		return nil
	}
	path := make([]int32, dist[v]+1)
	cur := int32(v)
	for i := len(path) - 1; i >= 0; i-- {
		path[i] = cur
		cur = parent[cur]
	}
	return path
}
