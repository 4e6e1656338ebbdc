// Engine and trial collection: the conventional metric names and the
// RoundHook-based collector every layer shares, so a campaign manifest and
// a single radiosim run report the same snapshot shape.

package obs

import (
	"fmt"
	"sync/atomic"
	"time"

	"radionet/internal/radio"
)

// Conventional metric names. Engine counters accumulate over every engine
// round the collector observes (across all trials of a campaign); trial
// metrics are per protocol run.
const (
	// Engine counters, fed by EngineCollector's round hook.
	EngineRounds     = "engine.rounds"
	EngineTx         = "engine.transmissions"
	EngineDeliveries = "engine.deliveries"
	EngineCollisions = "engine.collisions"
	// EngineRoundsPerSec is a gauge: observed simulation throughput,
	// updated by the campaign progress loop and at run end.
	EngineRoundsPerSec = "engine.rounds_per_sec"

	// Trial metrics.
	TrialsCompleted = "trials.completed"
	TrialsFailed    = "trials.failed"
	// TrialRounds is a histogram of per-trial executed round counts.
	TrialRounds = "trial.rounds"
	// TrialWall is a Timer (µs histogram) of per-trial wall times.
	TrialWall = "trial.wall_us"
	// TrialBudgetPermille is a histogram of round-budget fraction used,
	// in permille (rounds*1000/budget), recorded when the trial's
	// effective budget is known. >1000 means a composite runner's
	// documented per-unit floor overshot an explicit budget.
	TrialBudgetPermille = "trial.budget_used_permille"

	// Precompute cache counters, fed by the campaign setup phase
	// when a disk-backed precompute store is attached (-cache-dir): cache
	// files loaded, products rebuilt from source, and cache bytes moved
	// (read on hits, written on misses). Like every metric they are
	// strictly output-neutral — the cache changes setup wall time, never
	// a sink byte.
	PrecomputeCacheHits   = "precompute.cache.hits"
	PrecomputeCacheMisses = "precompute.cache.misses"
	PrecomputeCacheBytes  = "precompute.cache.bytes"
)

// PrecomputeBuild returns the conventional timer name for one topology
// product's from-source build wall time:
// "precompute.build.<spec>@<seed>.wall_us". Recorded only when the product
// was actually built this run (never on cache or in-memory hits).
func PrecomputeBuild(spec string, seed uint64) string {
	return fmt.Sprintf("precompute.build.%s@%016x.wall_us", spec, seed)
}

// TrialRoundsBounds buckets per-trial round counts on a power-of-two
// ladder from 2^4 to 2^24.
var TrialRoundsBounds = func() []int64 {
	var b []int64
	for s := 4; s <= 24; s++ {
		b = append(b, 1<<s)
	}
	return b
}()

// BudgetPermilleBounds buckets budget fractions: 5% steps to 100%, then
// overshoot markers.
var BudgetPermilleBounds = func() []int64 {
	var b []int64
	for f := int64(50); f <= 1000; f += 50 {
		b = append(b, f)
	}
	return append(b, 1500, 2000)
}()

// EngineCollector accumulates engine-side counters from the round hook:
// rounds, transmissions, deliveries, collisions. One collector may be
// shared by any number of concurrently running engines (all updates are
// atomic adds). Install its Hook on an engine — composed with any other
// hook via radio.ChainHooks — or pass it through protocol.BuildParams.Hook.
type EngineCollector struct {
	rounds     *Counter
	tx         *Counter
	deliveries *Counter
	collisions *Counter
}

// NewEngineCollector resolves the engine counters in reg. A nil registry
// returns a nil collector, whose Hook is nil — safe to install.
func NewEngineCollector(reg *Registry) *EngineCollector {
	if reg == nil {
		return nil
	}
	return &EngineCollector{
		rounds:     reg.Counter(EngineRounds),
		tx:         reg.Counter(EngineTx),
		deliveries: reg.Counter(EngineDeliveries),
		collisions: reg.Counter(EngineCollisions),
	}
}

// Hook returns the collector's RoundHook (nil for a nil collector).
func (c *EngineCollector) Hook() radio.RoundHook {
	if c == nil {
		return nil
	}
	return func(_ int64, tx []int32, deliveries, collisions int) {
		c.rounds.Add(1)
		c.tx.Add(int64(len(tx)))
		c.deliveries.Add(int64(deliveries))
		c.collisions.Add(int64(collisions))
	}
}

// EngineShardBusy returns the conventional counter name for one shard's
// accumulated busy time: "engine.shard.NN.busy_us".
func EngineShardBusy(shard int) string {
	return fmt.Sprintf("engine.shard.%02d.busy_us", shard)
}

// ShardCollector accumulates per-shard busy time from the engine's
// ShardHook when intra-round sharding is enabled. Like EngineCollector it
// may be shared by any number of concurrently running engines (atomic
// adds); shards beyond the pre-resolved count fold into the last counter
// rather than dropping on the floor.
type ShardCollector struct {
	busy  []*Counter
	nanos []atomic.Int64 // raw busy nanoseconds per shard
}

// NewShardCollector resolves busy-time counters for shards 0..shards-1 in
// reg. A nil registry (or shards < 1) returns a nil collector, whose Hook
// is nil — safe to install.
func NewShardCollector(reg *Registry, shards int) *ShardCollector {
	if reg == nil || shards < 1 {
		return nil
	}
	c := &ShardCollector{busy: make([]*Counter, shards), nanos: make([]atomic.Int64, shards)}
	for s := range c.busy {
		c.busy[s] = reg.Counter(EngineShardBusy(s))
	}
	return c
}

// Hook returns the collector's ShardHook (nil for a nil collector).
func (c *ShardCollector) Hook() radio.ShardHook {
	if c == nil {
		return nil
	}
	return func(shard int, busyNanos int64) {
		if shard >= len(c.busy) {
			shard = len(c.busy) - 1
		}
		// Each counter holds its shard's total nanoseconds truncated once
		// to µs: every flush adds the µs its nanoseconds carry the total
		// across, so no round's sub-µs remainder is lost.
		total := c.nanos[shard].Add(busyNanos)
		c.busy[shard].Add(total/1000 - (total-busyNanos)/1000)
	}
}

// TrialCollector records per-trial outcomes: completion counters, round
// and wall-time histograms, and the budget-fraction histogram. Safe for
// concurrent use by any number of workers.
type TrialCollector struct {
	completed *Counter
	failed    *Counter
	rounds    *Histogram
	wall      *Timer
	budget    *Histogram
}

// NewTrialCollector resolves the trial metrics in reg (nil reg -> nil
// collector, whose Record is a no-op).
func NewTrialCollector(reg *Registry) *TrialCollector {
	if reg == nil {
		return nil
	}
	return &TrialCollector{
		completed: reg.Counter(TrialsCompleted),
		failed:    reg.Counter(TrialsFailed),
		rounds:    reg.Histogram(TrialRounds, TrialRoundsBounds),
		wall:      reg.Timer(TrialWall),
		budget:    reg.Histogram(TrialBudgetPermille, BudgetPermilleBounds),
	}
}

// Record folds one trial outcome in. budget <= 0 means the effective
// round budget was unknown and skips the fraction histogram.
func (c *TrialCollector) Record(rounds int64, wall time.Duration, done bool, budget int64) {
	if c == nil {
		return
	}
	c.completed.Inc()
	if !done {
		c.failed.Inc()
	}
	c.rounds.Observe(rounds)
	c.wall.Observe(wall)
	if budget > 0 {
		c.budget.Observe(rounds * 1000 / budget)
	}
}
