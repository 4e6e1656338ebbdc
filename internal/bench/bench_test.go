package bench

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"radionet/internal/obs"
	"radionet/internal/precompute"
)

func TestGridsListedAndResolvable(t *testing.T) {
	gs := Grids()
	if len(gs) < 2 {
		t.Fatalf("want >= 2 pinned grids, got %d", len(gs))
	}
	for _, g := range gs {
		if _, ok := LookupGrid(g.Name); !ok {
			t.Fatalf("grid %s not resolvable", g.Name)
		}
		// Both variants must expand cleanly.
		for _, quick := range []bool{false, true} {
			if _, err := g.Matrix(quick).Expand(); err != nil {
				t.Fatalf("grid %s (quick=%v): %v", g.Name, quick, err)
			}
		}
	}
	if _, ok := LookupGrid("no-such-grid"); ok {
		t.Fatal("bogus grid resolved")
	}
}

// TestRunQuickRoundTrip runs the decay grid at quick scale and round-trips
// the emitted file through Parse — the same check CI applies to the
// committed BENCH_*.json files.
func TestRunQuickRoundTrip(t *testing.T) {
	g, _ := LookupGrid("decay")
	f, err := Run(g, true, 0, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !f.Quick || f.Grid != "decay" || f.SchemaVersion != SchemaVersion {
		t.Fatalf("file header wrong: %+v", f)
	}
	if f.Cache != "off" {
		t.Fatalf("cache = %q without a store, want off", f.Cache)
	}
	if len(f.Entries) != 2 { // one topology x two algorithms
		t.Fatalf("entries = %d, want 2", len(f.Entries))
	}
	for _, e := range f.Entries {
		if e.Trials != 2 || e.RoundsMean <= 0 || e.WallMSTotal <= 0 {
			t.Fatalf("implausible entry: %+v", e)
		}
	}
	if f.RoundsPerSec <= 0 {
		t.Fatalf("rounds_per_sec = %v", f.RoundsPerSec)
	}
	path := filepath.Join(t.TempDir(), "BENCH_decay.json")
	if err := f.WriteFile(path); err != nil {
		t.Fatal(err)
	}
	back, err := ParseFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if back.ConfigHash != f.ConfigHash || len(back.Entries) != len(f.Entries) {
		t.Fatalf("round trip mismatch: %+v vs %+v", back, f)
	}
}

func TestParseRejectsBadFiles(t *testing.T) {
	good := &File{
		SchemaVersion: SchemaVersion,
		Grid:          "decay",
		Entries:       []obs.ConfigRecord{{Name: "randtree:2000/broadcast:bgi", N: 2000, D: 20, Trials: 2, RoundsMean: 100, WallMSTotal: 1, WallMSMean: 0.5}},
	}
	b, _ := json.Marshal(good)
	if _, err := Parse(b); err != nil {
		t.Fatalf("good file rejected: %v", err)
	}
	cases := map[string]func(f *File){
		"schema":   func(f *File) { f.SchemaVersion = SchemaVersion + 1 },
		"grid":     func(f *File) { f.Grid = "" },
		"entries":  func(f *File) { f.Entries = nil },
		"trials":   func(f *File) { f.Entries[0].Trials = 0 },
		"failures": func(f *File) { f.Entries[0].Failures = 3 },
		"negative": func(f *File) { f.Entries[0].WallMSTotal = -1 },
		"cache":    func(f *File) { f.Cache = "lukewarm" },
	}
	for name, mutate := range cases {
		f := *good
		f.Entries = append([]obs.ConfigRecord(nil), good.Entries...)
		mutate(&f)
		b, _ := json.Marshal(&f)
		if _, err := Parse(b); err == nil {
			t.Errorf("%s: bad file accepted", name)
		}
	}
	// Unknown fields are schema drift, not data.
	if _, err := Parse([]byte(`{"schema_version":4,"grid":"g","bogus":true,"entries":[]}`)); err == nil || !strings.Contains(err.Error(), "bogus") {
		t.Errorf("unknown field accepted: %v", err)
	}
}

// TestParseSchemaVersions pins the one supported wire shape: a version-4
// file round-trips through Parse with its setup split and history
// intact, and every other version — the retired 1–3 and a future 5 —
// fails with an error naming the supported version.
func TestParseSchemaVersions(t *testing.T) {
	entry := `{"name":"randtree:2000/broadcast:bgi","n":2000,"d":20,"trials":2,"rounds_mean":100,"wall_ms_total":1,"wall_ms_mean":0.5,"setup_ms":3}`
	hist := `{"go":"go1.x","gomaxprocs":1,"workers":1,"shards":1,"config_hash":"h","wall_ms":2,"rounds_per_sec":5,"setup_ms":1,"cache":"off"}`
	file := func(ver int) string {
		return fmt.Sprintf(`{"schema_version":%d,"grid":"decay","go":"go1.x","gomaxprocs":4,"workers":4,"shards":4,"config_hash":"h","wall_ms":1,"rounds_per_sec":10,"setup_ms":7,"cache":"warm","entries":[%s],"history":[%s]}`, ver, entry, hist)
	}
	f, err := Parse([]byte(file(4)))
	if err != nil {
		t.Fatalf("v4 file rejected: %v", err)
	}
	if f.SetupMS != 7 || f.Cache != "warm" || f.Shards != 4 || f.Entries[0].SetupMS != 3 ||
		len(f.History) != 1 || f.History[0].WallMS != 2 || f.History[0].Cache != "off" {
		t.Fatalf("v4 parse lost fields: %+v", f)
	}
	b, err := json.Marshal(f)
	if err != nil {
		t.Fatal(err)
	}
	back, err := Parse(b)
	if err != nil {
		t.Fatalf("re-marshalled v4 file rejected: %v", err)
	}
	if !reflect.DeepEqual(back, f) {
		t.Fatalf("v4 round trip changed the file:\n%+v\n%+v", back, f)
	}
	for _, ver := range []int{1, 2, 3, 5} {
		if _, err := Parse([]byte(file(ver))); err == nil || !strings.Contains(err.Error(), "supported 4") {
			t.Errorf("schema_version %d: want an error naming the supported version, got %v", ver, err)
		}
	}
}

// TestRunCacheEquivalence pins the bench-level cache contract: one grid
// run with the cache off, cold and warm produces identical deterministic
// measurements (config hash, trials, rounds), while the file honestly
// reports which cache state it ran under.
func TestRunCacheEquivalence(t *testing.T) {
	g, _ := LookupGrid("decay")
	dir := t.TempDir()
	off, err := Run(g, true, 2, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	cold, err := Run(g, true, 2, 1, precompute.NewStore(dir))
	if err != nil {
		t.Fatal(err)
	}
	warm, err := Run(g, true, 2, 1, precompute.NewStore(dir))
	if err != nil {
		t.Fatal(err)
	}
	if off.Cache != "off" || cold.Cache != "cold" || warm.Cache != "warm" {
		t.Fatalf("cache statuses: %q %q %q, want off cold warm", off.Cache, cold.Cache, warm.Cache)
	}
	for _, f := range []*File{cold, warm} {
		if f.ConfigHash != off.ConfigHash || len(f.Entries) != len(off.Entries) {
			t.Fatalf("cache changed the grid shape: %+v vs %+v", f, off)
		}
		for i, e := range f.Entries {
			o := off.Entries[i]
			if e.Name != o.Name || e.Trials != o.Trials || e.Failures != o.Failures || e.RoundsMean != o.RoundsMean {
				t.Fatalf("cache changed a measurement: %+v vs %+v", e, o)
			}
		}
	}
}

// TestAppendHistory pins the -append trajectory contract: the previous
// file's headline measurement becomes the newest history entry, its own
// history survives in order, and the grafted file still validates and
// round-trips.
func TestAppendHistory(t *testing.T) {
	entries := []obs.ConfigRecord{{Name: "randtree:2000/broadcast:bgi", N: 2000, D: 20, Trials: 2, RoundsMean: 100, WallMSTotal: 1, WallMSMean: 0.5}}
	prev := &File{
		SchemaVersion: SchemaVersion,
		Grid:          "decay",
		Generated:     "2026-01-01T00:00:00Z",
		Go:            "go1.x",
		GOMAXPROCS:    1,
		Workers:       1,
		Shards:        1,
		ConfigHash:    "h-old",
		WallMS:        200,
		RoundsPerSec:  5,
		Entries:       entries,
		History:       []HistoryEntry{{Go: "go1.w", GOMAXPROCS: 1, Workers: 1, ConfigHash: "h-older", WallMS: 300, RoundsPerSec: 3}},
	}
	fresh := &File{
		SchemaVersion: SchemaVersion,
		Grid:          "decay",
		Go:            "go1.x",
		GOMAXPROCS:    4,
		Workers:       4,
		Shards:        4,
		ConfigHash:    "h-old",
		WallMS:        100,
		RoundsPerSec:  10,
		Entries:       entries,
	}
	fresh.AppendHistory(prev)
	if len(fresh.History) != 2 {
		t.Fatalf("history length %d, want 2", len(fresh.History))
	}
	if fresh.History[0].ConfigHash != "h-older" || fresh.History[1].ConfigHash != "h-old" {
		t.Fatalf("history order wrong: %+v", fresh.History)
	}
	if fresh.History[1].WallMS != 200 || fresh.History[1].Generated != "2026-01-01T00:00:00Z" {
		t.Fatalf("snapshot lost the previous measurement: %+v", fresh.History[1])
	}
	if fresh.WallMS != 100 || fresh.Shards != 4 {
		t.Fatalf("append clobbered the fresh measurement: %+v", fresh)
	}
	path := filepath.Join(t.TempDir(), "BENCH_decay.json")
	if err := fresh.WriteFile(path); err != nil {
		t.Fatal(err)
	}
	back, err := ParseFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(back.History) != 2 || back.History[1].WallMS != 200 {
		t.Fatalf("history did not round-trip: %+v", back.History)
	}
}

// TestHugeGridOptIn pins the opt-in contract the cmd/bench "all" sweep
// relies on: the huge grid exists, is marked OptIn, and targets n=1e6.
func TestHugeGridOptIn(t *testing.T) {
	g, ok := LookupGrid("huge")
	if !ok {
		t.Fatal("huge grid not registered")
	}
	if !g.OptIn {
		t.Fatal("huge grid must be opt-in")
	}
	plan, err := g.Matrix(false).Expand()
	if err != nil {
		t.Fatal(err)
	}
	for i := range plan.Configs {
		c := &plan.Configs[i]
		if c.G.N() != 1000000 {
			t.Fatalf("huge grid config %s has n=%d, want 1e6", c.Name(), c.G.N())
		}
	}
	for _, other := range []string{"decay", "compete"} {
		g, _ := LookupGrid(other)
		if g.OptIn {
			t.Fatalf("grid %s must not be opt-in", other)
		}
	}
}

// FuzzParse holds Parse to its contract on arbitrary input: an error, or
// a file that passes Validate and survives a marshal → Parse round trip
// unchanged; never a panic. Seeded with the committed BENCH files.
func FuzzParse(f *testing.F) {
	seeds, err := filepath.Glob("../../BENCH_*.json")
	if err != nil || len(seeds) == 0 {
		f.Fatalf("no committed BENCH_*.json seeds: %v", err)
	}
	for _, path := range seeds {
		b, err := os.ReadFile(path)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(b)
	}
	f.Fuzz(func(t *testing.T, b []byte) {
		file, err := Parse(b)
		if err != nil {
			return
		}
		if err := file.Validate(); err != nil {
			t.Fatalf("parsed file fails Validate: %v", err)
		}
		out, err := json.Marshal(file)
		if err != nil {
			t.Fatal(err)
		}
		back, err := Parse(out)
		if err != nil {
			t.Fatalf("re-marshalled file rejected: %v", err)
		}
		// Compared as JSON: an empty list and an omitted one are the same
		// file, though not the same Go value.
		if again, _ := json.Marshal(back); !bytes.Equal(again, out) {
			t.Fatalf("round trip changed the file:\n%s\n%s", out, again)
		}
	})
}
