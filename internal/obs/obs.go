// Package obs is the repository's zero-dependency observability core: a
// small set of allocation-light metric primitives — atomic counters,
// gauges, fixed-bucket histograms and wall-time timers — collected in a
// snapshotable Registry.
//
// The package exists to let every layer of the simulator *watch* the
// numbers it produces (the engine's round/transmission/delivery/collision
// counts, the trial runner's wall times and budget fractions, the campaign
// executor's per-worker utilization) without perturbing any output: no
// metric primitive draws randomness, takes a lock on the hot path, or
// writes to a sink. Campaign text/CSV/JSONL output is byte-identical with
// metrics enabled or disabled, at any worker count — the neutrality
// contract pinned by internal/campaign's telemetry tests.
//
// Concurrency: all primitives are safe for concurrent use. Counters,
// gauges and histogram buckets are single atomic words; Registry
// get-or-create takes a mutex but returns stable pointers, so callers
// resolve metrics once and update lock-free afterwards. Snapshot is safe
// to call while writers are active (it reads each word atomically; the
// snapshot is per-word consistent, not globally atomic — fine for
// telemetry).
package obs

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"
)

// Counter is a monotonically increasing atomic counter.
type Counter struct{ v atomic.Int64 }

// Add adds d (negative d is a caller bug; counters are monotone).
func (c *Counter) Add(d int64) { c.v.Add(d) }

// Inc adds 1.
func (c *Counter) Inc() { c.v.Add(1) }

// Value returns the current count.
func (c *Counter) Value() int64 { return c.v.Load() }

// Gauge is an instantaneous atomic value (set, not accumulated).
type Gauge struct{ v atomic.Int64 }

// Set stores v.
func (g *Gauge) Set(v int64) { g.v.Store(v) }

// Value returns the stored value.
func (g *Gauge) Value() int64 { return g.v.Load() }

// Histogram is a fixed-bucket distribution of int64 observations. Bucket
// i counts observations <= Bounds[i] (and > Bounds[i-1]); one implicit
// overflow bucket counts observations above the last bound. Count, Sum,
// Min and Max are exact. All updates are atomic; Observe performs one
// binary search plus a handful of atomic operations and never allocates.
type Histogram struct {
	bounds []int64
	counts []atomic.Int64 // len(bounds)+1; last is the overflow bucket
	count  atomic.Int64
	sum    atomic.Int64
	min    atomic.Int64 // valid iff count > 0
	max    atomic.Int64 // valid iff count > 0
}

// NewHistogram returns a histogram over the given ascending upper bounds.
// It panics on empty or non-ascending bounds (a construction-time bug).
func NewHistogram(bounds []int64) *Histogram {
	if len(bounds) == 0 {
		panic("obs: histogram needs at least one bucket bound")
	}
	for i := 1; i < len(bounds); i++ {
		if bounds[i] <= bounds[i-1] {
			panic(fmt.Sprintf("obs: histogram bounds must ascend, got %d after %d", bounds[i], bounds[i-1]))
		}
	}
	h := &Histogram{
		bounds: append([]int64(nil), bounds...),
		counts: make([]atomic.Int64, len(bounds)+1),
	}
	return h
}

// Observe records one value.
func (h *Histogram) Observe(v int64) {
	// Binary search for the first bound >= v; the overflow bucket catches
	// the rest.
	lo, hi := 0, len(h.bounds)
	for lo < hi {
		mid := (lo + hi) / 2
		if h.bounds[mid] < v {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	h.counts[lo].Add(1)
	h.sum.Add(v)
	if h.count.Add(1) == 1 {
		// First observation seeds min/max; racing observers fall through
		// to the CAS loops below, which handle any interleaving.
		h.min.Store(v)
		h.max.Store(v)
	}
	for {
		cur := h.min.Load()
		if v >= cur || h.min.CompareAndSwap(cur, v) {
			break
		}
	}
	for {
		cur := h.max.Load()
		if v <= cur || h.max.CompareAndSwap(cur, v) {
			break
		}
	}
}

// Bucket is one histogram bucket in a snapshot: the count of observations
// with value <= Le (and above the previous bound). Observations above the
// last bound land in HistogramSnapshot.Overflow.
type Bucket struct {
	Le    int64 `json:"le"`
	Count int64 `json:"count"`
}

// HistogramSnapshot is the JSON-marshalable state of one histogram.
// Buckets are non-cumulative; Overflow counts observations above the last
// bound. Min/Max are meaningful only when Count > 0.
type HistogramSnapshot struct {
	Count    int64    `json:"count"`
	Sum      int64    `json:"sum"`
	Min      int64    `json:"min"`
	Max      int64    `json:"max"`
	Buckets  []Bucket `json:"buckets,omitempty"`
	Overflow int64    `json:"overflow,omitempty"`
}

// Mean returns Sum/Count (0 for an empty histogram).
func (s HistogramSnapshot) Mean() float64 {
	if s.Count == 0 {
		return 0
	}
	return float64(s.Sum) / float64(s.Count)
}

func (h *Histogram) snapshot() HistogramSnapshot {
	s := HistogramSnapshot{
		Count: h.count.Load(),
		Sum:   h.sum.Load(),
	}
	if s.Count > 0 {
		s.Min, s.Max = h.min.Load(), h.max.Load()
	}
	for i, b := range h.bounds {
		if c := h.counts[i].Load(); c != 0 {
			s.Buckets = append(s.Buckets, Bucket{Le: b, Count: c})
		}
	}
	s.Overflow = h.counts[len(h.bounds)].Load()
	return s
}

// Timer is a wall-time histogram. Observations are recorded in
// microseconds (sub-microsecond durations round to 0µs but still count),
// so the int64 sum holds ~292k years of accumulated time.
type Timer struct{ h *Histogram }

// DefaultTimerBoundsUS is the Timer bucket layout: a 1-2-5 ladder from
// 100µs to 100s, in microseconds.
var DefaultTimerBoundsUS = []int64{
	100, 200, 500,
	1_000, 2_000, 5_000,
	10_000, 20_000, 50_000,
	100_000, 200_000, 500_000,
	1_000_000, 2_000_000, 5_000_000,
	10_000_000, 20_000_000, 50_000_000, 100_000_000,
}

// Observe records one duration.
func (t *Timer) Observe(d time.Duration) { t.h.Observe(d.Microseconds()) }

// Registry is a named collection of metrics. Get-or-create methods are
// mutex-guarded and idempotent (same name, same metric); the returned
// pointers are stable, so hot paths resolve once and update lock-free.
// A nil *Registry is a valid no-op target for the helpers in this package
// that accept one (they check); the metric constructors themselves require
// a non-nil registry.
type Registry struct {
	mu       sync.Mutex
	counters map[string]*Counter
	gauges   map[string]*Gauge
	hists    map[string]*Histogram
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters: make(map[string]*Counter),
		gauges:   make(map[string]*Gauge),
		hists:    make(map[string]*Histogram),
	}
}

// Counter returns the named counter, creating it on first use.
func (r *Registry) Counter(name string) *Counter {
	r.mu.Lock()
	defer r.mu.Unlock()
	c, ok := r.counters[name]
	if !ok {
		c = &Counter{}
		r.counters[name] = c
	}
	return c
}

// Gauge returns the named gauge, creating it on first use.
func (r *Registry) Gauge(name string) *Gauge {
	r.mu.Lock()
	defer r.mu.Unlock()
	g, ok := r.gauges[name]
	if !ok {
		g = &Gauge{}
		r.gauges[name] = g
	}
	return g
}

// Histogram returns the named histogram, creating it with the given
// bounds on first use. Later calls ignore bounds (the first creation
// wins), so concurrent get-or-create is stable.
func (r *Registry) Histogram(name string, bounds []int64) *Histogram {
	r.mu.Lock()
	defer r.mu.Unlock()
	h, ok := r.hists[name]
	if !ok {
		h = NewHistogram(bounds)
		r.hists[name] = h
	}
	return h
}

// Timer returns the named wall-time histogram (DefaultTimerBoundsUS).
func (r *Registry) Timer(name string) *Timer {
	return &Timer{h: r.Histogram(name, DefaultTimerBoundsUS)}
}

// Snapshot is the JSON-marshalable state of a whole registry. Maps
// marshal with sorted keys, so equal registry states produce identical
// bytes — manifests and expvar output are diffable.
type Snapshot struct {
	Counters   map[string]int64             `json:"counters,omitempty"`
	Gauges     map[string]int64             `json:"gauges,omitempty"`
	Histograms map[string]HistogramSnapshot `json:"histograms,omitempty"`
}

// Snapshot captures the registry's current state. Safe to call while
// writers are active; each metric is read atomically. A nil registry
// yields the zero Snapshot.
func (r *Registry) Snapshot() Snapshot {
	var s Snapshot
	if r == nil {
		return s
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if len(r.counters) > 0 {
		s.Counters = make(map[string]int64, len(r.counters))
		for n, c := range r.counters {
			s.Counters[n] = c.Value()
		}
	}
	if len(r.gauges) > 0 {
		s.Gauges = make(map[string]int64, len(r.gauges))
		for n, g := range r.gauges {
			s.Gauges[n] = g.Value()
		}
	}
	if len(r.hists) > 0 {
		s.Histograms = make(map[string]HistogramSnapshot, len(r.hists))
		for n, h := range r.hists {
			s.Histograms[n] = h.snapshot()
		}
	}
	return s
}
