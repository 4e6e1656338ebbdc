// Conformance suite: every descriptor in the registry — present and
// future — is held to the same contracts (see the package comment of
// internal/protocol). A new algorithm gets all of this for free by
// registering itself; a registration that breaks a contract fails here,
// not in a campaign three layers up.
package protocol_test

import (
	"testing"

	"radionet/internal/compete"
	"radionet/internal/decay"
	"radionet/internal/graph"
	"radionet/internal/protocol"

	_ "radionet/internal/protocol/all"
)

// conformanceGraph is small enough for every algorithm's whp budget to be
// cheap.
func conformanceGraph() *graph.Graph { return graph.Grid(6, 6) }

const conformanceSeed = 5

func buildRunner(t *testing.T, d *protocol.Descriptor, scratch any) protocol.Runner {
	t.Helper()
	g := conformanceGraph()
	r, err := d.Build(protocol.BuildParams{
		G:       g,
		D:       g.DiameterEstimate(),
		Seed:    conformanceSeed,
		Sources: d.DefaultSources(),
		Scratch: scratch,
	})
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	return r
}

// fields strips the non-comparable Verify closure off a Result.
func fields(r protocol.Result) [6]int64 {
	done := int64(0)
	if r.Done {
		done = 1
	}
	return [6]int64{r.Rounds, r.Tx, done, int64(r.Reached), int64(r.ReachTarget), r.Precompute}
}

func forEveryDescriptor(t *testing.T, fn func(t *testing.T, d *protocol.Descriptor)) {
	for _, task := range protocol.Tasks() {
		for _, d := range protocol.ByTask(task) {
			t.Run(string(task)+"/"+d.Name, func(t *testing.T) { fn(t, d) })
		}
	}
}

// TestConformanceDeterministicAndComplete: same seed ⇒ identical Result;
// the default (whp-sufficient) budget completes on the small graph; every
// runner reports transmissions; a runner with reach accounting reports
// the whole network reached; Done implies Verify() == nil where a
// postcondition check is registered; leader runners expose the election
// outcome.
func TestConformanceDeterministicAndComplete(t *testing.T) {
	forEveryDescriptor(t, func(t *testing.T, d *protocol.Descriptor) {
		res1 := buildRunner(t, d, nil).Run(0)
		res2 := buildRunner(t, d, nil).Run(0)
		if fields(res1) != fields(res2) {
			t.Fatalf("same seed, different results: %v vs %v", fields(res1), fields(res2))
		}
		if !res1.Done {
			t.Fatalf("default budget did not complete: %+v", res1)
		}
		if res1.Rounds <= 0 || res1.Tx <= 0 {
			t.Fatalf("empty metrics: rounds=%d tx=%d", res1.Rounds, res1.Tx)
		}
		if n := conformanceGraph().N(); res1.ReachTarget != 0 && (res1.ReachTarget != n || res1.Reached != n) {
			t.Fatalf("reach %d/%d, want %d/%d", res1.Reached, res1.ReachTarget, n, n)
		}
		if res1.Verify != nil {
			if err := res1.Verify(); err != nil {
				t.Fatalf("Done but Verify failed: %v", err)
			}
		}
		if d.Task == protocol.Leader {
			r := buildRunner(t, d, nil)
			res := r.Run(0)
			lr, ok := r.(protocol.LeaderRunner)
			if !ok {
				t.Fatal("leader descriptor's runner does not implement protocol.LeaderRunner")
			}
			if res.Verify == nil {
				t.Fatal("leader descriptor without a Verify postcondition")
			}
			if res.Done && lr.Leader() < 0 {
				t.Fatalf("Done but Leader() = %d", lr.Leader())
			}
			if len(lr.Candidates()) == 0 {
				t.Fatal("no candidates exposed")
			}
		}
	})
}

// TestConformanceDefaultBudget: budget <= 0 means the documented default
// on every protocol type, so Run(0) on one fresh runner equals
// Run(DefaultBudget()) on another for every Budgeted descriptor.
func TestConformanceDefaultBudget(t *testing.T) {
	forEveryDescriptor(t, func(t *testing.T, d *protocol.Descriptor) {
		r := buildRunner(t, d, nil)
		b, ok := r.(protocol.Budgeted)
		if !ok {
			t.Fatalf("runner %T does not implement protocol.Budgeted", r)
		}
		def := b.DefaultBudget()
		if def <= 0 {
			t.Fatalf("DefaultBudget() = %d", def)
		}
		zero, explicit := r.Run(0), buildRunner(t, d, nil).Run(def)
		if fields(zero) != fields(explicit) {
			t.Fatalf("Run(0) = %v, Run(DefaultBudget()=%d) = %v", fields(zero), def, fields(explicit))
		}
	})
	// The same holds on the type outside the registry: a Decay broadcast
	// built directly completes under Run(0).
	t.Run("type/decay.Broadcast", func(t *testing.T) {
		g := conformanceGraph()
		bc := decay.NewBroadcast(g, g.DiameterEstimate(), decay.Config{}, conformanceSeed, map[int]int64{0: 9})
		if res := bc.Run(0); !res.Done || res.Rounds <= 0 {
			t.Fatalf("Run(0) on %s: %+v", g.Name(), res)
		}
	})
}

// TestConformanceBudgetCap: Run(budget) executes at most budget rounds.
// 520 is above every runner's per-unit floor (binary-search's 40-bit
// split rounds down), so the cap is exact.
func TestConformanceBudgetCap(t *testing.T) {
	const budget = 520
	forEveryDescriptor(t, func(t *testing.T, d *protocol.Descriptor) {
		res := buildRunner(t, d, nil).Run(budget)
		if res.Rounds > budget {
			t.Fatalf("ran %d rounds over the %d budget", res.Rounds, budget)
		}
	})
}

// TestConformanceScratchNeutral: sharing a descriptor-built scratch across
// runs changes no output bit relative to scratch-free construction.
func TestConformanceScratchNeutral(t *testing.T) {
	forEveryDescriptor(t, func(t *testing.T, d *protocol.Descriptor) {
		if d.NewScratch == nil {
			return
		}
		g := conformanceGraph()
		scratch := d.NewScratch(g, g.DiameterEstimate(), nil)
		if scratch == nil {
			t.Fatal("NewScratch returned nil")
		}
		bare := buildRunner(t, d, nil).Run(0)
		with1 := buildRunner(t, d, scratch).Run(0)
		with2 := buildRunner(t, d, scratch).Run(0)
		if fields(bare) != fields(with1) || fields(with1) != fields(with2) {
			t.Fatalf("scratch changed output: bare=%v with=%v reuse=%v", fields(bare), fields(with1), fields(with2))
		}
	})
}

// TestConformanceRejectsOutOfRangeSource: every source-driven descriptor
// returns a Build error — never a panic — for a source node outside the
// graph.
func TestConformanceRejectsOutOfRangeSource(t *testing.T) {
	forEveryDescriptor(t, func(t *testing.T, d *protocol.Descriptor) {
		if d.DefaultSources() == nil {
			return
		}
		g := conformanceGraph()
		for _, src := range []int{g.N(), 99, -1} {
			func() {
				defer func() {
					if p := recover(); p != nil {
						t.Errorf("source %d: Build panicked: %v", src, p)
					}
				}()
				_, err := d.Build(protocol.BuildParams{
					G: g, D: g.DiameterEstimate(), Seed: conformanceSeed, Sources: map[int]int64{src: 9},
				})
				if err == nil {
					t.Errorf("source %d: Build accepted a source outside the %d-node graph", src, g.N())
				}
			}()
		}
	})
}

// competeDescriptors are the descriptors that take a BuildParams.Tuning
// (a compete.Config); every other descriptor takes none.
var competeDescriptors = map[string]bool{"broadcast/cd17": true, "broadcast/hw16": true, "leader/cd17": true}

// TestConformanceTuning: the Compete descriptors accept a compete.Config
// and reject tuning of any other type; every other descriptor rejects any
// non-nil Tuning instead of silently ignoring it.
func TestConformanceTuning(t *testing.T) {
	forEveryDescriptor(t, func(t *testing.T, d *protocol.Descriptor) {
		g := conformanceGraph()
		build := func(tuning any) error {
			_, err := d.Build(protocol.BuildParams{
				G: g, D: g.DiameterEstimate(), Seed: conformanceSeed, Sources: d.DefaultSources(), Tuning: tuning,
			})
			return err
		}
		takesTuning := competeDescriptors[string(d.Task)+"/"+d.Name]
		if err := build(compete.Config{DisableHelper: true}); (err == nil) != takesTuning {
			t.Errorf("compete.Config tuning: err = %v, descriptor takes tuning: %v", err, takesTuning)
		}
		if err := build(struct{ K int }{8}); err == nil {
			t.Error("accepted a tuning value of a foreign type")
		}
	})
}
