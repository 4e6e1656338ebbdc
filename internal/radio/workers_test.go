package radio

import (
	"runtime"
	"testing"
	"time"

	"radionet/internal/graph"
)

// waitGoroutines polls until the process goroutine count drops to at most
// want, giving exiting workers (and, when gc is set, the weak-pointer
// cleanup) time to run. Returns the last observed count.
func waitGoroutines(want int, gc bool) int {
	deadline := time.Now().Add(5 * time.Second) //lint:wallclock test-only teardown polling
	n := runtime.NumGoroutine()
	for n > want && time.Now().Before(deadline) { //lint:wallclock test-only teardown polling
		if gc {
			runtime.GC()
		}
		time.Sleep(time.Millisecond)
		n = runtime.NumGoroutine()
	}
	return n
}

// settledGoroutines returns the goroutine count once it has held steady
// for 10 consecutive 1 ms polls, collecting garbage between polls so
// GC-cleanup teardowns run (5 s cap).
func settledGoroutines() int {
	deadline := time.Now().Add(5 * time.Second) //lint:wallclock test-only teardown polling
	n, steady := runtime.NumGoroutine(), 0
	for steady < 10 && time.Now().Before(deadline) { //lint:wallclock test-only teardown polling
		runtime.GC()
		time.Sleep(time.Millisecond)
		if m := runtime.NumGoroutine(); m != n {
			n, steady = m, 0
			continue
		}
		steady++
	}
	return n
}

// newShardedEngine builds a small sharded engine for lifecycle tests.
func newShardedEngine(k int) *Engine {
	g := graph.Grid(13, 17)
	nodes := make([]Node, g.N())
	for v := range nodes {
		nodes[v] = silent{}
	}
	e := NewNodeEngine(g, nodes)
	e.SetShards(k)
	return e
}

// TestEngineCloseReleasesWorkers pins the deterministic teardown path:
// SetShards parks k-1 resident workers, Close joins them promptly (no
// waiting on GC), and Close is idempotent.
func TestEngineCloseReleasesWorkers(t *testing.T) {
	// Resident workers of engines that earlier tests closed or dropped
	// may still be exiting; a baseline counted mid-exit would undercount
	// the workers SetShards adds.
	base := settledGoroutines()
	e := newShardedEngine(4)
	if got := runtime.NumGoroutine(); got < base+3 {
		t.Fatalf("goroutines after SetShards(4): %d, want >= %d (3 resident workers)", got, base+3)
	}
	e.Close()
	if got := waitGoroutines(base, false); got > base {
		t.Fatalf("goroutines after Close: %d, want <= %d", got, base)
	}
	e.Close() // idempotent
}

// TestEngineUsableAfterClose pins the post-Close contract: a closed
// sharded engine keeps running correctly — waves fall back to inline
// sequential execution — and SetShards may be called again.
func TestEngineUsableAfterClose(t *testing.T) {
	g := graph.Grid(13, 17)
	ref := runShardCase(g, 1, true, false, 40)

	e, _ := newShardProtoEngine(g, false)
	e.SetFaults(mkShardPlan(g.N()))
	pre := runtime.NumGoroutine()
	e.SetShards(8)
	e.Close() // workers gone, shard structures still installed
	stepN(e, 40)
	if e.Metrics != ref.metrics {
		t.Fatalf("closed sharded engine diverged:\nk=1:    %+v\nclosed: %+v", ref.metrics, e.Metrics)
	}

	// Re-sharding (before the first step) after Close spawns a fresh pool.
	// Close does not join the exiting workers, so count from after they
	// are gone: a worker still exiting would inflate base.
	base := waitGoroutines(pre, false)
	e2 := newShardedEngine(8)
	e2.Close()
	e2.SetShards(4)
	if got := runtime.NumGoroutine(); got < base+3 {
		t.Fatalf("goroutines after re-SetShards: %d, want >= %d", got, base+3)
	}
	e2.Close()
	waitGoroutines(base, false)
}

// TestEngineGCReleasesWorkers pins the leak backstop: an engine that is
// never Closed must not pin its resident workers forever — the workers
// hold only a weak reference, so dropping the engine lets the GC collect
// it and its cleanup close the command channels.
func TestEngineGCReleasesWorkers(t *testing.T) {
	base := runtime.NumGoroutine()
	func() {
		e := newShardedEngine(4)
		_ = e.Shards()
	}()
	if got := waitGoroutines(base, true); got > base {
		t.Fatalf("goroutines after dropping engine: %d, want <= %d (workers leaked past GC)", got, base)
	}
}

// TestEngineSetCloseAll pins the EngineSet convenience: every added
// engine is closed, nil adds are ignored, and Close is nil-safe.
func TestEngineSetCloseAll(t *testing.T) {
	base := runtime.NumGoroutine()
	var set EngineSet
	set.Add(nil)
	e1 := newShardedEngine(2)
	e2 := newShardedEngine(3)
	set.Add(e1)
	set.Add(e2)
	set.Close()
	if got := waitGoroutines(base, false); got > base {
		t.Fatalf("goroutines after EngineSet.Close: %d, want <= %d", got, base)
	}
	var nilSet *EngineSet
	e3 := newShardedEngine(2)
	nilSet.Add(e3) // nil-safe no-op registration
	nilSet.Close()
	e3.Close()
	waitGoroutines(base, false)
}
