package lint_test

import (
	"testing"

	"radionet/internal/lint"
)

// TestRepoIsClean runs the full analyzer suite plus the whole-module
// checks (registry reachability, dead exports) over the module itself and
// demands zero findings — the same bar CI's vet-radionet step enforces. A
// regression in any policed invariant (a new unsorted map range in a
// simulation package, a stray wall-clock read, a hot-path allocation, an
// exported function only tests call) fails this test.
func TestRepoIsClean(t *testing.T) {
	if testing.Short() {
		t.Skip("loads and type-checks the whole module")
	}
	root, err := moduleRoot()
	if err != nil {
		t.Fatal(err)
	}
	res, bench, err := lint.LoadPerimeter(root)
	if err != nil {
		t.Fatal(err)
	}
	diags := lint.RunAnalyzers(res, lint.All())
	diags = append(diags, lint.CheckRegistryReachability(res)...)
	diags = append(diags, lint.CheckDeadExports(res, bench)...)
	for _, d := range diags {
		t.Errorf("%s", d)
	}
}
