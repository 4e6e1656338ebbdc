package baseline

import (
	"fmt"
	"maps"
	"strings"
	"testing"

	"radionet/internal/compete"
	"radionet/internal/decay"
	"radionet/internal/graph"
	"radionet/internal/protocol"
)

// truncatedDecay builds the CR/KP-flavored surrogate the way the
// truncated-decay descriptor does: the BGI protocol with Decay phases
// truncated to TruncatedDecayLevels.
func truncatedDecay(g *graph.Graph, d int, seed uint64, sources map[int]int64) *decay.Broadcast {
	return decay.NewBroadcast(g, d, decay.Config{Levels: TruncatedDecayLevels(g.N(), d)}, seed, sources)
}

func TestTruncatedDecayLevels(t *testing.T) {
	tests := []struct{ n, d, want int }{
		{1024, 1024, 2}, // n == D: minimal phases
		{1024, 64, 6},   // n/D = 16 -> log2(16)+2 = 6
		{1024, 1, 12},   // star-like: full decay scale
		{16, 1000, 2},   // d > n clamps
	}
	for _, tc := range tests {
		if got := TruncatedDecayLevels(tc.n, tc.d); got != tc.want {
			t.Errorf("TruncatedDecayLevels(%d,%d) = %d, want %d", tc.n, tc.d, got, tc.want)
		}
	}
}

func TestTruncatedDecayCompletesOnLongDiameter(t *testing.T) {
	// The surrogate's home turf: layers with few competitors.
	g := graph.Path(200)
	bc := truncatedDecay(g, 199, 3, map[int]int64{0: 5})
	if !bc.Run(1 << 20).Done {
		t.Fatal("truncated decay broadcast did not finish on a path")
	}
}

func TestTruncatedDecayCompletesOnCliquePath(t *testing.T) {
	g := graph.PathOfCliques(16, 8)
	bc := truncatedDecay(g, g.Diameter(), 3, map[int]int64{0: 5})
	if !bc.Run(1 << 22).Done {
		t.Fatal("truncated decay broadcast did not finish on clique path")
	}
}

// TestSampleCandidates checks the candidate sets the two leader baselines
// elect among: non-empty, in range, with unique IDBits-bit IDs, and both
// exactly the Algorithm-6 draw protocol.SampleCandidates makes for (n, seed).
func TestSampleCandidates(t *testing.T) {
	for _, n := range []int{8, 100, 5000} {
		g := graph.Path(n)
		bs, err := NewBinarySearchLE(g, n-1, 7)
		if err != nil {
			t.Fatal(err)
		}
		mb, err := NewMaxBroadcastLE(g, n-1, 7, nil)
		if err != nil {
			t.Fatal(err)
		}
		cands := bs.Candidates()
		if len(cands) == 0 {
			t.Fatalf("n=%d: empty candidate set", n)
		}
		seen := make(map[int64]bool)
		for v, id := range cands {
			if v < 0 || v >= n {
				t.Fatalf("n=%d: candidate %d out of range", n, v)
			}
			if id < 0 || id >= 1<<protocol.IDBits || seen[id] {
				t.Fatalf("n=%d: bad or duplicate ID %d", n, id)
			}
			seen[id] = true
		}
		want, _ := protocol.SampleCandidates(n, 7)
		if !maps.Equal(cands, want) || !maps.Equal(mb.Candidates(), want) {
			t.Fatalf("n=%d: a baseline's candidates differ from protocol.SampleCandidates", n)
		}
	}
}

// TestSampleCandidatesDeterministic checks that a baseline election's
// candidate set is a function of (graph, seed) alone.
func TestSampleCandidatesDeterministic(t *testing.T) {
	g := graph.Grid(20, 25)
	a, _ := NewBinarySearchLE(g, g.Diameter(), 42)
	b, _ := NewBinarySearchLE(g, g.Diameter(), 42)
	if !maps.Equal(a.Candidates(), b.Candidates()) {
		t.Fatal("non-deterministic binary-search candidates")
	}
	c, _ := NewMaxBroadcastLE(g, g.Diameter(), 42, nil)
	d, _ := NewMaxBroadcastLE(g, g.Diameter(), 42, nil)
	if !maps.Equal(c.Candidates(), d.Candidates()) {
		t.Fatal("non-deterministic max-broadcast candidates")
	}
}

func TestBinarySearchLE(t *testing.T) {
	g := graph.Grid(7, 7)
	le, err := NewBinarySearchLE(g, g.Diameter(), 11)
	if err != nil {
		t.Fatal(err)
	}
	res := le.Run(0)
	if !res.Done || le.Leader() < 0 {
		t.Fatalf("binary search failed: %+v", res)
	}
	// The winner must be the true max candidate ID.
	var max int64 = -1
	for _, id := range le.Candidates() {
		if id > max {
			max = id
		}
	}
	if le.LeaderID() != max {
		t.Fatalf("winner %d, true max %d", le.LeaderID(), max)
	}
	if res.Rounds != protocol.IDBits*leTBC(g.N(), g.Diameter()) {
		t.Fatalf("rounds %d not IDBits*T_BC", res.Rounds)
	}
}

// TestBinarySearchLEHookSeesSimulatedRounds builds binary-search LE
// through its descriptor with a round hook: the per-bit broadcasts run
// on the one engine Build wired, so the hook sees exactly that engine's
// simulated rounds and transmissions. Silent bits run none and a
// broadcast that completes stops early, so the count is positive and at
// most the charged Rounds.
func TestBinarySearchLEHookSeesSimulatedRounds(t *testing.T) {
	d, ok := protocol.Lookup(protocol.Leader, "binary-search")
	if !ok {
		t.Fatal("leader:binary-search not registered")
	}
	g := graph.Grid(7, 7)
	var hookRounds, hookTx int64
	r, err := d.Build(protocol.BuildParams{G: g, D: g.Diameter(), Seed: 11, Hook: func(_ int64, tx []int32, _, _ int) {
		hookRounds++
		hookTx += int64(len(tx))
	}})
	if err != nil {
		t.Fatal(err)
	}
	le := r.(*BinarySearchLE)
	res := le.Run(0)
	if !res.Done {
		t.Fatalf("binary search failed: %+v", res)
	}
	if m := le.bc.Engine.Metrics; hookRounds != m.Rounds || hookTx != res.Tx || res.Tx != m.Transmissions {
		t.Fatalf("hook saw %d rounds and %d tx; engine ran %d rounds and %d tx; result tx %d",
			hookRounds, hookTx, m.Rounds, m.Transmissions, res.Tx)
	}
	if hookRounds <= 0 || hookRounds > res.Rounds {
		t.Fatalf("hook saw %d rounds, want in (0, %d]", hookRounds, res.Rounds)
	}
}

func leTBC(n, d int) int64 {
	l := int64(levels(n))
	return 3 * (int64(d) + l) * l
}

func levels(n int) int {
	l := 1
	for m := 2; m < n; m <<= 1 {
		l++
	}
	return l
}

func TestMaxBroadcastLE(t *testing.T) {
	g := graph.PathOfCliques(6, 5)
	le, err := NewMaxBroadcastLE(g, g.Diameter(), 13, nil)
	if err != nil {
		t.Fatal(err)
	}
	res := le.Run(0)
	if !res.Done || le.Leader() < 0 {
		t.Fatalf("max-broadcast LE failed: %+v", res)
	}
	if got := le.Candidates()[le.Leader()]; got != le.LeaderID() {
		t.Fatalf("leader's ID %d != winner %d", got, le.LeaderID())
	}
}

func TestHW16Mode(t *testing.T) {
	g := graph.Path(48)
	b, err := compete.New(compete.NewPre(g, 47, compete.Config{CurtailLogLog: true}), 5, map[int]int64{0: 3}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !b.Run(4 * b.Budget()).Done {
		t.Fatal("HW16-mode broadcast incomplete")
	}
}

func TestBinarySearchVsMaxBroadcastOrdering(t *testing.T) {
	// The headline LE comparison: binary search pays IDBits broadcasts,
	// the max-broadcast approach pays ~one.
	g := graph.Grid(8, 8)
	bs, err := NewBinarySearchLE(g, g.Diameter(), 21)
	if err != nil {
		t.Fatal(err)
	}
	mb, err := NewMaxBroadcastLE(g, g.Diameter(), 21, nil)
	if err != nil {
		t.Fatal(err)
	}
	rb := bs.Run(0)
	rm := mb.Run(0)
	if !rb.Done || !rm.Done {
		t.Fatalf("runs incomplete: %+v %+v", rb, rm)
	}
	if rm.Rounds >= rb.Rounds {
		t.Fatalf("max-broadcast (%d) not faster than binary search (%d)", rm.Rounds, rb.Rounds)
	}
}

// bitTraces runs binary search on g with one candidate, node 0, whose ID
// has every bit set, so every bit broadcasts from the same source; it
// returns each bit's broadcast as one string of its per-round transmitter
// sets, in run order (high bit first). Equal traces then mean a shared
// sub-run seed.
func bitTraces(t *testing.T, g *graph.Graph, seed uint64) []string {
	t.Helper()
	le, err := NewBinarySearchLE(g, g.Diameter(), seed)
	if err != nil {
		t.Fatal(err)
	}
	le.candidates = map[int]int64{0: 1<<protocol.IDBits - 1}
	var cur strings.Builder
	var out []string
	le.bc.Engine.Hook = func(_ int64, tx []int32, _, _ int) {
		fmt.Fprint(&cur, tx, ";")
		if le.bc.Done() {
			out = append(out, cur.String())
			cur.Reset()
		}
	}
	if res := le.Run(0); !res.Done {
		t.Fatalf("seed %d: election incomplete", seed)
	}
	if len(out) != protocol.IDBits {
		t.Fatalf("seed %d: %d bit traces, want %d", seed, len(out), protocol.IDBits)
	}
	return out
}

// TestBinarySearchTrialsShareNoSubRun checks that consecutive trial seeds
// s and s+1 share no per-bit broadcast. Adding the bit to the trial seed
// would make bit b of trial s draw the coins of bit b-1 of trial s+1.
func TestBinarySearchTrialsShareNoSubRun(t *testing.T) {
	g := graph.Grid(8, 8)
	for s := uint64(1); s <= 3; s++ {
		seen := map[string]string{}
		for _, seed := range []uint64{s, s + 1} {
			for i, tr := range bitTraces(t, g, seed) {
				at := fmt.Sprintf("seed %d bit %d", seed, protocol.IDBits-1-i) // bits run high to low
				if prev, ok := seen[tr]; ok {
					t.Errorf("%s replays %s", at, prev)
				}
				seen[tr] = at
			}
		}
	}
}
