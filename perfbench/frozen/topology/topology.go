package topology

import (
	"fmt"
	"strconv"
	"strings"

	"radionet/perfbench/frozen/graph"
	"radionet/perfbench/frozen/rng"
)

// Topology is a parsed topology spec that can build its graph.
type Topology struct {
	// Spec is the canonical spec string.
	Spec string
	// Build generates the graph; seed matters only for the random
	// families (geometric, gnp, randtree, regular).
	Build func(seed uint64) *graph.Graph
}

// ParseTopology parses a topology spec. The grammar is
// "family:params" with dimensions joined by 'x':
//
//	path:N cycle:N star:N complete:N randtree:N
//	grid:RxC cliquepath:KxS caterpillar:SPINExLEGS
//	tree:ARITYxDEPTH dumbbell:SxL regular:NxD
//	hypercube:DIM
//	geometric:N:RADIUS gnp:N:P
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
	switch family {
	case "path", "cycle", "star", "complete", "hypercube", "randtree":
		n, err := oneInt()
		if err != nil {
			return fail("%v", err)
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
		if family == "geometric" {
			build = func(seed uint64) *graph.Graph { return graph.RandomGeometric(n, f, rng.New(seed)) }
		} else {
			build = func(seed uint64) *graph.Graph { return graph.Gnp(n, f, rng.New(seed)) }
		}
	default:
		return fail("unknown family (known: path cycle star complete hypercube randtree grid cliquepath caterpillar tree dumbbell regular geometric gnp)")
	}
	return Topology{Spec: strings.TrimSpace(spec), Build: build}, nil
}
