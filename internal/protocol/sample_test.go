package protocol

import (
	"maps"
	"testing"
)

// TestSampleCandidates checks the Algorithm-6 sampler: a non-empty set of
// in-range nodes with unique IDBits-bit IDs, the same set on every call
// with one (n, seed), and an error for an empty graph.
func TestSampleCandidates(t *testing.T) {
	for _, n := range []int{1, 8, 100, 5000} {
		cands, err := SampleCandidates(n, 7)
		if err != nil {
			t.Fatal(err)
		}
		if len(cands) == 0 {
			t.Fatalf("n=%d: empty candidate set", n)
		}
		seen := make(map[int64]bool)
		for v, id := range cands {
			if v < 0 || v >= n {
				t.Fatalf("n=%d: candidate %d out of range", n, v)
			}
			if id < 0 || id >= 1<<IDBits || seen[id] {
				t.Fatalf("n=%d: bad or duplicate ID %d", n, id)
			}
			seen[id] = true
		}
		again, _ := SampleCandidates(n, 7)
		if !maps.Equal(cands, again) {
			t.Fatalf("n=%d: the draw is not a function of (n, seed)", n)
		}
	}
	if _, err := SampleCandidates(0, 1); err == nil {
		t.Fatal("n=0 accepted")
	}
}
