// Resident shard workers: the goroutine pool behind intra-round sharding.
//
// The first sharded engine spawned 3·(k-1) goroutines per round (one per
// spawned shard per wave), ~1000 rounds per trial — cheap individually,
// but measurable single-core overhead at k = 4 (see BENCH_huge.json's
// gomaxprocs: 1 trajectory). SetShards now spawns k-1 workers once; each
// parks on a one-slot command channel and executes whatever wave command
// arrives, so a wave costs k-1 channel sends and one WaitGroup barrier
// instead of k-1 goroutine creations.
//
// Lifecycle: workers hold only a weak pointer to the engine plus their
// command channel, so a worker never keeps its engine alive. Engines are
// torn down two ways: deterministically by Engine.Close (the campaign,
// facade and bench paths close every engine when a trial ends, via
// radio.EngineSet), or — for API users who drop an engine on the floor —
// by a runtime.AddCleanup that closes the command channels once the
// engine is unreachable, unparking the workers into channel-close exit.
// After Close, the engine remains usable: waves fall back to running
// every shard inline on the caller (bit-identical, just sequential).
package radio

import (
	"runtime"
	"sync"
	"weak"
)

// spawnWorkers starts the k-1 resident wave workers and installs the GC
// fallback that closes their command channels when the engine is dropped
// without Close. Called only by SetShards (k > 1), which has already
// released any previous pool.
func (e *Engine) spawnWorkers(k int) {
	e.workerCmds = make([]chan uint8, k-1)
	// The weak pointer is what lets the cleanup ever run: a strong *Engine
	// captured by a worker would keep the engine reachable forever. During
	// a wave the sender holds the engine and blocks on wg.Wait, so Value()
	// is always non-nil while a command is in flight.
	wp := weak.Make(e)
	for i := range e.workerCmds {
		ch := make(chan uint8, 1) // one-slot: dispatch never blocks on a parked worker
		e.workerCmds[i] = ch
		go shardWorker(ch, wp, i+1)
	}
	// The cleanup argument must not (and does not) reference the engine:
	// it captures the channel slice only, so the engine can become
	// unreachable and the cleanup can fire.
	e.workerCleanup = runtime.AddCleanup(e, closeWorkerChans, e.workerCmds)
}

// shardWorker is one resident worker's loop: park on the command channel,
// run the commanded wave on shard idx, hit the barrier, park again. Exits
// when the channel closes (Engine.Close or the GC cleanup).
func shardWorker(cmds <-chan uint8, wp weak.Pointer[Engine], idx int) {
	for cmd := range cmds {
		e := wp.Value()
		if e == nil {
			// Unreachable in practice (senders hold the engine until the
			// barrier), but a vanished engine must not hang the loop.
			continue
		}
		e.sh[idx].run(cmd)
		e.wg.Done()
	}
}

// closeWorkerChans unparks every worker into loop exit. Package-level (not
// a closure) so the cleanup provably captures nothing but its argument.
func closeWorkerChans(chs []chan uint8) {
	for _, ch := range chs {
		close(ch)
	}
}

// Close releases the engine's resident shard workers, if any. Idempotent
// and safe on an unsharded engine; must not be called concurrently with
// Step. The engine remains usable afterwards — subsequent sharded waves
// run inline on the caller, bit-identically. Callers that build engines
// through protocol.BuildParams get this wired for free via EngineSet.
func (e *Engine) Close() {
	if e.workerCmds == nil {
		return
	}
	e.workerCleanup.Stop()
	closeWorkerChans(e.workerCmds)
	e.workerCmds = nil
}

// EngineSet collects the engines a runner builds so their resident shard
// workers can be released deterministically when the trial ends — the
// executor convention threaded through protocol.BuildParams.Engines and
// populated by ApplyEngine. A nil set is a valid no-op receiver, so
// callers that don't care about deterministic teardown (the GC cleanup
// still reclaims workers eventually) pass nothing.
type EngineSet struct {
	mu      sync.Mutex
	engines []*Engine
}

// Add registers an engine for teardown. Nil-safe on both sides.
func (s *EngineSet) Add(e *Engine) {
	if s == nil || e == nil {
		return
	}
	s.mu.Lock()
	s.engines = append(s.engines, e)
	s.mu.Unlock()
}

// Close releases every registered engine's workers and empties the set.
// Idempotent; nil-safe.
func (s *EngineSet) Close() {
	if s == nil {
		return
	}
	s.mu.Lock()
	engines := s.engines
	s.engines = nil
	s.mu.Unlock()
	for _, e := range engines {
		e.Close()
	}
}
