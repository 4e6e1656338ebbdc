package obs

import (
	"encoding/json"
	"os"
	"strings"
	"sync"
	"testing"
	"time"

	"radionet/internal/decay"
	"radionet/internal/graph"
)

func TestCounterGauge(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("c")
	c.Inc()
	c.Add(41)
	if got := c.Value(); got != 42 {
		t.Fatalf("counter = %d, want 42", got)
	}
	if r.Counter("c") != c {
		t.Fatal("get-or-create returned a different counter")
	}
	g := r.Gauge("g")
	g.Set(7)
	g.Set(-3)
	if got := g.Value(); got != -3 {
		t.Fatalf("gauge = %d, want -3", got)
	}
}

func TestHistogramBuckets(t *testing.T) {
	h := NewHistogram([]int64{10, 100, 1000})
	for _, v := range []int64{1, 10, 11, 100, 500, 5000} {
		h.Observe(v)
	}
	s := h.snapshot()
	if s.Count != 6 || s.Sum != 1+10+11+100+500+5000 {
		t.Fatalf("count/sum = %d/%d", s.Count, s.Sum)
	}
	if s.Min != 1 || s.Max != 5000 {
		t.Fatalf("min/max = %d/%d", s.Min, s.Max)
	}
	want := map[int64]int64{10: 2, 100: 2, 1000: 1}
	for _, b := range s.Buckets {
		if b.Count != want[b.Le] {
			t.Errorf("bucket le=%d count=%d, want %d", b.Le, b.Count, want[b.Le])
		}
		delete(want, b.Le)
	}
	if len(want) != 0 {
		t.Errorf("missing buckets: %v", want)
	}
	if s.Overflow != 1 {
		t.Errorf("overflow = %d, want 1", s.Overflow)
	}
	if got := s.Mean(); got != float64(5622)/6 {
		t.Errorf("mean = %v", got)
	}
}

func TestHistogramPanicsOnBadBounds(t *testing.T) {
	for _, bounds := range [][]int64{nil, {}, {5, 5}, {10, 3}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("NewHistogram(%v) did not panic", bounds)
				}
			}()
			NewHistogram(bounds)
		}()
	}
}

func TestTimer(t *testing.T) {
	r := NewRegistry()
	tm := r.Timer("t")
	tm.Observe(3 * time.Millisecond)
	tm.Observe(time.Microsecond)
	s := r.Snapshot().Histograms["t"]
	if s.Count != 2 {
		t.Fatalf("count = %d, want 2", s.Count)
	}
	if s.Max < 3000 {
		t.Fatalf("max = %dµs, want >= 3000", s.Max)
	}
}

// TestConcurrentUpdates exercises every primitive from many goroutines;
// run under -race this is the concurrency contract test.
func TestConcurrentUpdates(t *testing.T) {
	r := NewRegistry()
	const workers, per = 8, 1000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			c := r.Counter("c")
			h := r.Histogram("h", []int64{100, 10000})
			g := r.Gauge("g")
			for i := 0; i < per; i++ {
				c.Inc()
				h.Observe(int64(w*per + i))
				g.Set(int64(i))
				if i%100 == 0 {
					r.Snapshot() // snapshots race harmlessly with writers
				}
			}
		}(w)
	}
	wg.Wait()
	s := r.Snapshot()
	if s.Counters["c"] != workers*per {
		t.Fatalf("counter = %d, want %d", s.Counters["c"], workers*per)
	}
	h := s.Histograms["h"]
	if h.Count != workers*per {
		t.Fatalf("histogram count = %d, want %d", h.Count, workers*per)
	}
	if h.Min != 0 || h.Max != workers*per-1 {
		t.Fatalf("min/max = %d/%d, want 0/%d", h.Min, h.Max, workers*per-1)
	}
	var bucketSum int64
	for _, b := range h.Buckets {
		bucketSum += b.Count
	}
	if bucketSum+h.Overflow != h.Count {
		t.Fatalf("bucket sum %d + overflow %d != count %d", bucketSum, h.Overflow, h.Count)
	}
}

func TestSnapshotDeterministicJSON(t *testing.T) {
	r := NewRegistry()
	r.Counter("b").Add(2)
	r.Counter("a").Add(1)
	r.Gauge("z").Set(9)
	b1, err := json.Marshal(r.Snapshot())
	if err != nil {
		t.Fatal(err)
	}
	b2, _ := json.Marshal(r.Snapshot())
	if string(b1) != string(b2) {
		t.Fatalf("snapshot JSON not stable:\n%s\n%s", b1, b2)
	}
	if !strings.Contains(string(b1), `"a":1,"b":2`) {
		t.Fatalf("keys not sorted: %s", b1)
	}
}

func TestNilRegistryCollectors(t *testing.T) {
	if NewEngineCollector(nil) != nil {
		t.Fatal("NewEngineCollector(nil) != nil")
	}
	if hook := NewEngineCollector(nil).Hook(); hook != nil {
		t.Fatal("nil collector Hook != nil")
	}
	NewTrialCollector(nil).Record(10, time.Millisecond, true, 100) // must not panic
	var nilReg *Registry
	if s := nilReg.Snapshot(); s.Counters != nil {
		t.Fatal("nil registry snapshot not zero")
	}
}

func TestEngineCollectorHook(t *testing.T) {
	r := NewRegistry()
	hook := NewEngineCollector(r).Hook()
	hook(0, []int32{1, 2, 3}, 2, 1)
	hook(1, nil, 0, 0)
	s := r.Snapshot()
	if s.Counters[EngineRounds] != 2 || s.Counters[EngineTx] != 3 ||
		s.Counters[EngineDeliveries] != 2 || s.Counters[EngineCollisions] != 1 {
		t.Fatalf("engine counters = %v", s.Counters)
	}
}

func TestTrialCollector(t *testing.T) {
	r := NewRegistry()
	c := NewTrialCollector(r)
	c.Record(500, 2*time.Millisecond, true, 1000)   // 50% of budget
	c.Record(1000, 5*time.Millisecond, false, 1000) // exhausted
	c.Record(10, time.Millisecond, true, 0)         // unknown budget
	s := r.Snapshot()
	if s.Counters[TrialsCompleted] != 3 || s.Counters[TrialsFailed] != 1 {
		t.Fatalf("trial counters = %v", s.Counters)
	}
	bh := s.Histograms[TrialBudgetPermille]
	if bh.Count != 2 {
		t.Fatalf("budget histogram count = %d, want 2 (unknown budget skipped)", bh.Count)
	}
	if bh.Min != 500 || bh.Max != 1000 {
		t.Fatalf("budget permille min/max = %d/%d", bh.Min, bh.Max)
	}
	if s.Histograms[TrialRounds].Count != 3 {
		t.Fatalf("rounds histogram count = %d", s.Histograms[TrialRounds].Count)
	}
}

func TestManifestWriteFile(t *testing.T) {
	m := NewManifest("test")
	m.ConfigHash = "abc"
	m.Protocols = []string{"broadcast:cd17"}
	m.Configs = []ConfigRecord{{Name: "grid:4x4/broadcast:cd17", N: 16, D: 6, Trials: 3}}
	m.Metrics = func() Snapshot {
		r := NewRegistry()
		r.Counter(EngineRounds).Add(5)
		return r.Snapshot()
	}()
	path := t.TempDir() + "/man.json"
	if err := m.WriteFile(path); err != nil {
		t.Fatal(err)
	}
	var back Manifest
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(b, &back); err != nil {
		t.Fatal(err)
	}
	if back.SchemaVersion != ManifestSchemaVersion || back.Tool != "test" ||
		back.Metrics.Counters[EngineRounds] != 5 || len(back.Configs) != 1 {
		t.Fatalf("round-trip mismatch: %+v", back)
	}
	if back.GOMAXPROCS <= 0 || back.GoVersion == "" {
		t.Fatalf("environment fields not filled: %+v", back)
	}
}

func TestShardCollectorHook(t *testing.T) {
	if NewShardCollector(nil, 4) != nil {
		t.Fatal("NewShardCollector(nil, 4) != nil")
	}
	if NewShardCollector(NewRegistry(), 0) != nil {
		t.Fatal("NewShardCollector(reg, 0) != nil")
	}
	if hook := NewShardCollector(nil, 4).Hook(); hook != nil {
		t.Fatal("nil collector Hook != nil")
	}
	r := NewRegistry()
	hook := NewShardCollector(r, 2).Hook()
	hook(0, 3000) // 3µs
	hook(1, 1000)
	hook(1, 2000)
	hook(7, 5000) // beyond the resolved count: folds into the last counter
	s := r.Snapshot()
	if s.Counters[EngineShardBusy(0)] != 3 {
		t.Fatalf("shard 0 busy = %d, want 3", s.Counters[EngineShardBusy(0)])
	}
	if s.Counters[EngineShardBusy(1)] != 8 {
		t.Fatalf("shard 1 busy = %d, want 3 (own) + 5 (overflow fold)", s.Counters[EngineShardBusy(1)])
	}
}

// TestShardCollectorTruncatesTotal runs a 2-shard bgi broadcast on an
// 8x16 grid (two bitset words, so both shards work) and checks that each
// shard's busy_us is its raw hook nanoseconds summed, then divided by
// 1000: no round's sub-µs remainder is dropped.
func TestShardCollectorTruncatesTotal(t *testing.T) {
	g := graph.Grid(8, 16)
	bc := decay.NewBroadcast(g, g.DiameterEstimate(), decay.Config{}, 1, map[int]int64{0: 1})
	bc.Engine.SetShards(2)
	defer bc.Engine.Close()
	r := NewRegistry()
	collect := NewShardCollector(r, 2).Hook()
	var raw [2]int64
	bc.Engine.ShardHook = func(shard int, busyNanos int64) {
		raw[shard] += busyNanos
		collect(shard, busyNanos)
	}
	if res := bc.Run(0); !res.Done {
		t.Fatalf("broadcast incomplete after %d rounds", res.Rounds)
	}
	s := r.Snapshot()
	for shard, ns := range raw {
		if ns == 0 {
			t.Fatalf("shard %d reported no busy time", shard)
		}
		if got, want := s.Counters[EngineShardBusy(shard)], ns/1000; got != want {
			t.Errorf("shard %d busy_us = %d, want %d (= %d ns / 1000)", shard, got, want, ns)
		}
	}
}
