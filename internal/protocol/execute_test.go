package protocol

import (
	"errors"
	"runtime"
	"testing"
	"time"

	"radionet/internal/graph"
	"radionet/internal/radio"
)

// scriptedRunner is a Runner with a fixed outcome: Run reports done and
// the budget it was given as its round count, and its postcondition
// check fails with verifyErr when that is set. Run records the goroutine
// count it sees in running.
type scriptedRunner struct {
	done      bool
	verifyErr error
	running   int
}

func (r *scriptedRunner) Run(budget int64) Result {
	r.running = runtime.NumGoroutine()
	return Result{Rounds: budget, Done: r.done, Verify: func() error { return r.verifyErr }}
}

// budgetedRunner adds a default budget of 77 rounds (protocol.Budgeted).
type budgetedRunner struct{ *scriptedRunner }

func (budgetedRunner) DefaultBudget() int64 { return 77 }

type idleNode struct{}

func (idleNode) Act(int64) radio.Action     { return radio.Listen }
func (idleNode) Recv(int64, *radio.Message) {}

// scriptedDescriptor builds r behind one engine wired through
// ApplyEngine, the way every descriptor does.
func scriptedDescriptor(r Runner) *Descriptor {
	return &Descriptor{Task: "test-execute", Name: "scripted", Build: func(p BuildParams) (Runner, error) {
		g := graph.Grid(13, 17)
		nodes := make([]radio.Node, g.N())
		for v := range nodes {
			nodes[v] = idleNode{}
		}
		p.ApplyEngine(radio.NewNodeEngine(g, nodes))
		return r, nil
	}}
}

func TestExecuteVerifyGate(t *testing.T) {
	bad := errors.New("two leaders")
	for _, c := range []struct {
		name     string
		r        scriptedRunner
		wantDone bool
		wantErr  error
	}{
		{"verified", scriptedRunner{done: true}, true, nil},
		{"verify fails", scriptedRunner{done: true, verifyErr: bad}, false, bad},
		// Verify checks a finished run only; a budget-exhausted run keeps
		// VerifyErr nil, so callers can tell the two failures apart.
		{"budget", scriptedRunner{verifyErr: bad}, false, nil},
	} {
		t.Run(c.name, func(t *testing.T) {
			out, err := scriptedDescriptor(&c.r).Execute(BuildParams{}, 10)
			if err != nil {
				t.Fatal(err)
			}
			if out.Done != c.wantDone || !errors.Is(out.VerifyErr, c.wantErr) {
				t.Fatalf("Done=%v VerifyErr=%v, want Done=%v VerifyErr=%v", out.Done, out.VerifyErr, c.wantDone, c.wantErr)
			}
			if out.Rounds != 10 || out.Runner != Runner(&c.r) {
				t.Fatalf("Execute lost the run: Rounds=%d Runner=%v", out.Rounds, out.Runner)
			}
		})
	}
}

func TestExecuteBudget(t *testing.T) {
	plain := &scriptedRunner{done: true}
	budgeted := budgetedRunner{plain}
	for _, c := range []struct {
		name   string
		r      Runner
		budget int64
		want   int64
	}{
		{"explicit", budgeted, 50, 50},
		{"explicit, not budgeted", plain, 50, 50},
		{"default", budgeted, 0, 77},
		{"negative selects the default", budgeted, -3, 77},
		{"not budgeted", plain, 0, 0},
		{"negative, not budgeted", plain, -3, 0},
	} {
		t.Run(c.name, func(t *testing.T) {
			out, err := scriptedDescriptor(c.r).Execute(BuildParams{}, c.budget)
			if err != nil {
				t.Fatal(err)
			}
			if out.Budget != c.want {
				t.Fatalf("Budget = %d, want %d", out.Budget, c.want)
			}
		})
	}
}

func TestExecuteBuildError(t *testing.T) {
	want := errors.New("bad tuning")
	d := &Descriptor{Build: func(BuildParams) (Runner, error) { return nil, want }}
	if _, err := d.Execute(BuildParams{}, 0); !errors.Is(err, want) {
		t.Fatalf("Execute error = %v, want %v", err, want)
	}
}

// TestExecuteReleasesShardWorkers: a sharded build parks resident worker
// goroutines (radio.Engine.SetShards); Execute closes the run's engines
// before it returns, so the workers exit even while the caller still
// holds the runner — and with it the engine, which keeps the GC cleanup
// from ever reclaiming them.
func TestExecuteReleasesShardWorkers(t *testing.T) {
	// Let goroutines of earlier tests finish exiting: the baseline is the
	// count once it has held steady for 10 polls.
	prev, steady := -1, 0
	base := pollGoroutines(func(n int) bool {
		if n != prev {
			prev, steady = n, 0
		}
		steady++
		return steady >= 10
	})
	r := &scriptedRunner{done: true}
	out, err := scriptedDescriptor(r).Execute(BuildParams{Shards: 4}, 5)
	if err != nil {
		t.Fatal(err)
	}
	if r.running < base+3 {
		t.Fatalf("goroutines during Run: %d, want >= %d (3 resident shard workers)", r.running, base+3)
	}
	if got := pollGoroutines(func(n int) bool { return n <= base }); got > base {
		t.Fatalf("goroutines after Execute: %d, want <= %d (shard workers still parked)", got, base)
	}
	runtime.KeepAlive(out.Runner)
}

// pollGoroutines polls the goroutine count every millisecond until stop
// holds for it or 5 s have passed, and returns the last count.
func pollGoroutines(stop func(n int) bool) int {
	deadline := time.Now().Add(5 * time.Second) //lint:wallclock test-only teardown polling
	n := runtime.NumGoroutine()
	for !stop(n) && time.Now().Before(deadline) { //lint:wallclock test-only teardown polling
		time.Sleep(time.Millisecond)
		n = runtime.NumGoroutine()
	}
	return n
}
