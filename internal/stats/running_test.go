package stats

import (
	"math"
	"testing"
)

func almostEq(a, b float64) bool { return math.Abs(a-b) <= 1e-9*(1+math.Abs(a)+math.Abs(b)) }

func TestRunningMatchesBatch(t *testing.T) {
	xs := []float64{4, 1, 7, 7, 2, 9, 3, 5, 8, 6}
	var r Running
	for _, x := range xs {
		r.Add(x)
	}
	if r.n != len(xs) {
		t.Fatalf("n = %d, want %d", r.n, len(xs))
	}
	if !almostEq(r.Mean(), Mean(xs)) {
		t.Errorf("Mean = %v, want %v", r.Mean(), Mean(xs))
	}
	if !almostEq(r.Std(), Std(xs)) {
		t.Errorf("Std = %v, want %v", r.Std(), Std(xs))
	}
	if r.Max() != 9 {
		t.Errorf("Max = %v, want 9", r.Max())
	}
	for _, q := range []float64{0, 0.5, 0.9, 0.99, 1} {
		if !almostEq(r.Quantile(q), Quantile(xs, q)) {
			t.Errorf("Quantile(%v) = %v, want %v", q, r.Quantile(q), Quantile(xs, q))
		}
	}
}

func TestRunningEmpty(t *testing.T) {
	var r Running
	if r.n != 0 || r.Mean() != 0 || r.Std() != 0 || r.Max() != 0 || r.Quantile(0.5) != 0 {
		t.Fatalf("empty Running not all-zero: %+v", r.Summary())
	}
	if r.Summary() != (Summary{}) {
		t.Fatalf("empty Summary = %+v", r.Summary())
	}
	r.Add(-2)
	if r.n != 1 || r.Mean() != -2 || r.Max() != -2 {
		t.Fatalf("one observation: %+v", r.Summary())
	}
}

func TestSummarizeP99(t *testing.T) {
	xs := make([]float64, 100)
	for i := range xs {
		xs[i] = float64(i)
	}
	s := Summarize(xs)
	if !almostEq(s.P99, 98.01) {
		t.Fatalf("P99 = %v, want 98.01", s.P99)
	}
}
