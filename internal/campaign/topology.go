package campaign

import (
	"fmt"
	"math"
	"strconv"
	"strings"

	"radionet/internal/graph"
	"radionet/internal/rng"
)

// Topology is a parsed topology spec that can build its graph.
type Topology struct {
	// Spec is the canonical spec string.
	Spec string
	// Build generates the graph; seed matters only for the random
	// families (geometric, gnp, randtree, regular).
	Build func(seed uint64) *graph.Graph
	// nodes is the node count Build produces.
	nodes int
}

// maxNodes bounds a spec's node count: graph node ids are int32.
const maxNodes = math.MaxInt32

// mulNodes returns a*b for a, b >= 0, or maxNodes+1 when the product
// exceeds maxNodes.
func mulNodes(a, b int) int {
	if a != 0 && b > maxNodes/a {
		return maxNodes + 1
	}
	return a * b
}

// treeNodes returns the node count of the complete arity-ary tree of the
// given depth, or maxNodes+1 when it exceeds maxNodes (arity >= 1,
// depth >= 0).
func treeNodes(arity, depth int) int {
	if arity == 1 {
		return min(depth, maxNodes) + 1
	}
	n, layer := 1, 1
	for d := 0; d < depth && n <= maxNodes; d++ {
		layer = mulNodes(layer, arity)
		n += layer
	}
	return min(n, maxNodes+1)
}

// ParseTopology parses a topology spec. The grammar is
// "family:params" with dimensions joined by 'x':
//
//	path:N cycle:N star:N complete:N randtree:N
//	grid:RxC cliquepath:KxS caterpillar:SPINExLEGS
//	tree:ARITYxDEPTH dumbbell:SxL regular:NxD
//	hypercube:DIM
//	geometric:N:RADIUS gnp:N:P
//
// Each family's size preconditions are checked here, so a bad size is an
// error rather than a generator panic: every family needs at least one
// node (a cycle three), hypercube:DIM needs DIM in [0, 24], regular:NxD
// needs D in [2, 3], D < N and N*D even (the configuration-model
// sampler rarely finds a simple pairing at higher degree), geometric
// needs RADIUS > 0 and gnp P in [0, 1]. A graph may hold at most
// 2^31 - 1 nodes.
func ParseTopology(spec string) (Topology, error) {
	parts := strings.Split(strings.TrimSpace(spec), ":")
	fail := func(format string, args ...any) (Topology, error) {
		return Topology{}, fmt.Errorf("campaign: topology %q: %s", spec, fmt.Sprintf(format, args...))
	}
	family := parts[0]
	args := parts[1:]

	oneInt := func() (int, error) {
		if len(args) != 1 {
			return 0, fmt.Errorf("want 1 argument, got %d", len(args))
		}
		return strconv.Atoi(args[0])
	}
	twoInts := func() (int, int, error) {
		if len(args) != 1 {
			return 0, 0, fmt.Errorf("want AxB argument")
		}
		dims := strings.Split(args[0], "x")
		if len(dims) != 2 {
			return 0, 0, fmt.Errorf("want AxB argument, got %q", args[0])
		}
		a, err := strconv.Atoi(dims[0])
		if err != nil {
			return 0, 0, err
		}
		b, err := strconv.Atoi(dims[1])
		if err != nil {
			return 0, 0, err
		}
		return a, b, nil
	}
	intFloat := func() (int, float64, error) {
		if len(args) != 2 {
			return 0, 0, fmt.Errorf("want N:X arguments")
		}
		n, err := strconv.Atoi(args[0])
		if err != nil {
			return 0, 0, err
		}
		f, err := strconv.ParseFloat(args[1], 64)
		if err != nil {
			return 0, 0, err
		}
		return n, f, nil
	}
	static := func(g func() *graph.Graph) func(uint64) *graph.Graph {
		return func(uint64) *graph.Graph { return g() }
	}

	var build func(seed uint64) *graph.Graph
	var nodes int
	switch family {
	case "path", "cycle", "star", "complete", "hypercube", "randtree":
		n, err := oneInt()
		if err != nil {
			return fail("%v", err)
		}
		nodes = n
		switch {
		case family == "hypercube":
			if n < 0 || n > 24 {
				return fail("want DIM in [0, 24], got %d", n)
			}
			nodes = 1 << n
		case family == "cycle" && n < 3:
			return fail("want N >= 3, got %d", n)
		case n < 1:
			return fail("want N >= 1, got %d", n)
		}
		switch family {
		case "path":
			build = static(func() *graph.Graph { return graph.Path(n) })
		case "cycle":
			build = static(func() *graph.Graph { return graph.Cycle(n) })
		case "star":
			build = static(func() *graph.Graph { return graph.Star(n) })
		case "complete":
			build = static(func() *graph.Graph { return graph.Complete(n) })
		case "hypercube":
			build = static(func() *graph.Graph { return graph.Hypercube(n) })
		case "randtree":
			build = func(seed uint64) *graph.Graph { return graph.RandomTree(n, rng.New(seed)) }
		}
	case "grid", "cliquepath", "caterpillar", "tree", "dumbbell", "regular":
		a, b, err := twoInts()
		if err != nil {
			return fail("%v", err)
		}
		switch family {
		case "grid", "cliquepath":
			if a < 1 || b < 1 {
				return fail("want both dimensions >= 1, got %dx%d", a, b)
			}
			nodes = mulNodes(a, b)
		case "caterpillar":
			if a < 1 || b < 0 {
				return fail("want SPINE >= 1 and LEGS >= 0, got %dx%d", a, b)
			}
			nodes = mulNodes(a, min(b, maxNodes)+1)
		case "tree":
			if a < 1 || b < 0 {
				return fail("want ARITY >= 1 and DEPTH >= 0, got %dx%d", a, b)
			}
			nodes = treeNodes(a, b)
		case "dumbbell":
			if a < 1 || b < 0 {
				return fail("want S >= 1 and L >= 0, got %dx%d", a, b)
			}
			nodes = min(a, maxNodes) + min(a, maxNodes) + min(b, maxNodes)
		case "regular":
			if b < 2 || b > 3 || b >= a || a%2 != 0 && b%2 != 0 {
				return fail("want D in [2, 3], D < N and N*D even, got %dx%d", a, b)
			}
			nodes = a
		}
		switch family {
		case "grid":
			build = static(func() *graph.Graph { return graph.Grid(a, b) })
		case "cliquepath":
			build = static(func() *graph.Graph { return graph.PathOfCliques(a, b) })
		case "caterpillar":
			build = static(func() *graph.Graph { return graph.Caterpillar(a, b) })
		case "tree":
			build = static(func() *graph.Graph { return graph.BalancedTree(a, b) })
		case "dumbbell":
			build = static(func() *graph.Graph { return graph.Dumbbell(a, b) })
		case "regular":
			build = func(seed uint64) *graph.Graph { return graph.RandomRegular(a, b, rng.New(seed)) }
		}
	case "geometric", "gnp":
		n, f, err := intFloat()
		if err != nil {
			return fail("%v", err)
		}
		if n < 1 {
			return fail("want N >= 1, got %d", n)
		}
		if family == "geometric" && !(f > 0) {
			return fail("want RADIUS > 0, got %v", f)
		}
		if family == "gnp" && !(f >= 0 && f <= 1) {
			return fail("want P in [0, 1], got %v", f)
		}
		nodes = n
		if family == "geometric" {
			build = func(seed uint64) *graph.Graph { return graph.RandomGeometric(n, f, rng.New(seed)) }
		} else {
			build = func(seed uint64) *graph.Graph { return graph.Gnp(n, f, rng.New(seed)) }
		}
	default:
		return fail("unknown family (known: path cycle star complete hypercube randtree grid cliquepath caterpillar tree dumbbell regular geometric gnp)")
	}
	if nodes > maxNodes {
		return fail("more than %d nodes", maxNodes)
	}
	return Topology{Spec: strings.TrimSpace(spec), Build: build, nodes: nodes}, nil
}
