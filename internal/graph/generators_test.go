package graph

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math"
	"runtime"
	"runtime/debug"
	"slices"
	"testing"

	"radionet/internal/rng"
)

// csrHash returns the hex sha256 of off ‖ adj, each entry as 4
// little-endian bytes.
func csrHash(g *Graph) string {
	h := sha256.New()
	var buf [4]byte
	for _, a := range [][]int32{g.off, g.adj} {
		for _, x := range a {
			binary.LittleEndian.PutUint32(buf[:], uint32(x))
			h.Write(buf[:])
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

// TestGeneratorCSRKnownAnswers pins the exact CSR arrays of the
// generators the benchmarks and campaigns lean on, so a faster build or
// generator that stays deterministic but reorders draws, edges or
// neighbour lists fails here. The last case has radius far below the
// connectivity threshold, so it exercises component stitching.
func TestGeneratorCSRKnownAnswers(t *testing.T) {
	cases := []struct {
		name string
		gen  func() *Graph
		m    int
		want string
	}{
		{"Gnp(4096,0.05,5)", func() *Graph { return Gnp(4096, 0.05, rng.New(5)) },
			422677, "b675f63eb09f3612617880bb789144bd33fa0cca6f09ca5c6ab795a6c0affa47"},
		{"RandomGeometric(10000,0.03,3)", func() *Graph { return RandomGeometric(10000, 0.03, rng.New(3)) },
			137208, "86b1e9f05fd0932180d8bce2159fd9f29b27753364c3fd2521ddecfe87ecbb0f"},
		{"Grid(8,512)", func() *Graph { return Grid(8, 512) },
			7672, "03b7a60f5478efcec0c8c8b224d53b8b359fcf9c769ae12d6bb4c6788dafcc3c"},
		{"RandomTree(1000,7)", func() *Graph { return RandomTree(1000, rng.New(7)) },
			999, "678642158717d325b095b790318dc40f618372f9c2238f290d62ca4c7c5b6ad0"},
		{"RandomGeometric(300,0.01,1)", func() *Graph { return RandomGeometric(300, 0.01, rng.New(1)) },
			299, "f336b14392f68b975651e2f0e1787db69f72eb219ddfd4beef025795c5a79e4f"},
	}
	for _, tc := range cases {
		g := tc.gen()
		if got := csrHash(g); g.M() != tc.m || got != tc.want {
			t.Errorf("%s: m = %d, sha256(off‖adj) = %s; want m = %d, %s", tc.name, g.M(), got, tc.m, tc.want)
		}
	}
}

// mapBucketGeometric is the reference RandomGeometric: the same point
// draws, bucketed into cells of side radius through a map keyed by
// cy*cols + cx. Its neighbour keys for cx±1 at a row edge alias the far
// cell of the adjacent row, which the distance test rejects.
func mapBucketGeometric(n int, radius float64, r *rng.Rand) *Graph {
	xs := make([]float64, n)
	ys := make([]float64, n)
	for i := range xs {
		xs[i] = r.Float64()
		ys[i] = r.Float64()
	}
	b := NewBuilder(fmt.Sprintf("geometric%.3f", radius), n)
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
	return stitchNearest(b.Build(), xs, ys)
}

// TestGeometricMatchesMapBuckets checks the flat cell lists of
// RandomGeometric against mapBucketGeometric: equal off and adj for
// radii below the 1/sqrt(n) cell floor (with stitching), near the
// connectivity threshold, dense, and at or above 1 (a single cell).
func TestGeometricMatchesMapBuckets(t *testing.T) {
	r := rng.New(31)
	cases := []struct {
		maxN  int
		radii []float64
	}{
		{200, []float64{1e-9, 1e-3, 0.02}},
		{2000, []float64{0.03}},
		{1000, []float64{0.3}},
		{300, []float64{1, 1.5}},
	}
	for _, tc := range cases {
		for _, radius := range tc.radii {
			for trial := 0; trial < 3; trial++ {
				n := 1 + r.Intn(tc.maxN)
				seed := r.Uint64()
				g := RandomGeometric(n, radius, rng.New(seed))
				want := mapBucketGeometric(n, radius, rng.New(seed))
				if !slices.Equal(g.off, want.off) || !slices.Equal(g.adj, want.adj) {
					t.Fatalf("n=%d radius=%g seed=%d: CSR differs from the map-bucket build", n, radius, seed)
				}
			}
		}
	}
}

// TestGnpAllocsSeedIndependent checks that Gnp's edge reservation covers
// every seed: an overshoot would regrow the builder's edge buffer and add
// an allocation on some seeds only. Runtime work can only add to a count,
// so each seed takes the least of three measurements, and the collector
// runs only between them. Gnp names its graph without fmt: under -race a
// sync.Pool drops a quarter of its Puts, so fmt's printer cache would add
// two allocations to a random subset of calls.
func TestGnpAllocsSeedIndependent(t *testing.T) {
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	var first float64
	for seed := uint64(1); seed <= 12; seed++ {
		a := math.Inf(1)
		for range 3 {
			runtime.GC()
			a = min(a, testing.AllocsPerRun(1, func() { Gnp(2048, 0.05, rng.New(seed)) }))
		}
		if seed == 1 {
			first = a
		} else if a != first {
			t.Errorf("seed %d: %v allocations, seed 1: %v", seed, a, first)
		}
	}
}

// TestGnpTinyP checks that an edge probability so small that a geometric
// skip overflows an int builds the bare spanning tree instead of
// panicking.
func TestGnpTinyP(t *testing.T) {
	for _, p := range []float64{1e-20, 1e-300, 5e-324} {
		g := Gnp(40, p, rng.New(1))
		if g.N() != 40 || g.M() != 39 || !g.IsConnected() {
			t.Errorf("Gnp(40, %g): %v, want the 39-edge spanning tree", p, g)
		}
	}
}
