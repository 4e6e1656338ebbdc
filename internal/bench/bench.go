// Package bench pins the repo's performance-trajectory benchmark grids:
// small, named campaign matrices whose measured wall times are committed
// as schema-versioned BENCH_<grid>.json files at the repo root. Each
// commit that touches the hot path regenerates them (cmd/bench), so the
// simulator's throughput history is diffable in git rather than folklore.
//
// The numbers are telemetry, not golden output: wall times vary by
// machine, so CI only checks that the files parse and validate — the
// trajectory itself is for humans (and ROADMAP item 3).
package bench

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"sort"

	"radionet/internal/campaign"
	"radionet/internal/obs"
	"radionet/internal/precompute"
)

// SchemaVersion is bumped on any incompatible File change, and Parse
// accepts only the current version. Version 2 added the Shards field
// (intra-round engine shard count); version 3 added the History
// trajectory (prior runs' headline measurements, appended by cmd/bench
// -append); version 4 split the setup phase out of the headline wall
// time (SetupMS, per-entry setup_ms) and recorded the precompute-cache
// status (Cache).
const SchemaVersion = 4

// File is one emitted BENCH_<grid>.json: the grid identity, the execution
// environment and one record per grid configuration. Entries reuse the
// manifest's per-config record type — one schema across every tool.
type File struct {
	SchemaVersion int    `json:"schema_version"`
	Grid          string `json:"grid"`
	// Generated is an RFC3339 timestamp (optional).
	Generated string `json:"generated,omitempty"`
	// Go, GOMAXPROCS and Workers record the execution environment.
	Go         string `json:"go"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	Workers    int    `json:"workers"`
	// Shards is the largest intra-round engine shard count any
	// configuration ran with (1 when sharding was off).
	Shards int `json:"shards,omitempty"`
	// ConfigHash fingerprints the expanded matrix (campaign.Matrix.Hash),
	// so two files are comparable only when their hashes agree.
	ConfigHash string `json:"config_hash"`
	// Quick marks a -quick run (CI smoke scale, not the pinned grid).
	Quick bool `json:"quick,omitempty"`
	// WallMS is the whole-run wall time; RoundsPerSec the aggregate
	// simulated-rounds throughput over it.
	WallMS       float64 `json:"wall_ms"`
	RoundsPerSec float64 `json:"rounds_per_sec"`
	// SetupMS is the setup-phase wall time — topology materialization and
	// scratch construction — measured separately from WallMS, which has
	// always excluded setup.
	SetupMS float64 `json:"setup_ms,omitempty"`
	// Cache is the precompute disk-cache status the run executed with:
	// "off", "cold" or "warm" (see campaign.RunStats.Cache).
	Cache string `json:"cache,omitempty"`
	// Entries are the per-configuration records, in configuration order.
	Entries []obs.ConfigRecord `json:"entries"`
	// History is the grid's measurement trajectory: the headline numbers
	// of prior runs, oldest first (cmd/bench -append moves the previous
	// file's measurement here instead of discarding it).
	History []HistoryEntry `json:"history,omitempty"`
}

// HistoryEntry is one prior run's headline measurement: the execution
// environment plus the whole-run numbers, without the per-config
// entries. It is exactly what a throughput-trajectory diff needs —
// wall time and rounds/s against cores, workers and shard count.
type HistoryEntry struct {
	Generated    string  `json:"generated,omitempty"`
	Go           string  `json:"go"`
	GOMAXPROCS   int     `json:"gomaxprocs"`
	Workers      int     `json:"workers"`
	Shards       int     `json:"shards,omitempty"`
	ConfigHash   string  `json:"config_hash"`
	Quick        bool    `json:"quick,omitempty"`
	WallMS       float64 `json:"wall_ms"`
	RoundsPerSec float64 `json:"rounds_per_sec"`
	// SetupMS and Cache mirror the File fields (zero/empty on entries
	// snapshotted from runs predating the setup split).
	SetupMS float64 `json:"setup_ms,omitempty"`
	Cache   string  `json:"cache,omitempty"`
}

// Snapshot condenses the file's current measurement into the history
// form — what -append preserves before overwriting the measurement.
func (f *File) Snapshot() HistoryEntry {
	return HistoryEntry{
		Generated:    f.Generated,
		Go:           f.Go,
		GOMAXPROCS:   f.GOMAXPROCS,
		Workers:      f.Workers,
		Shards:       f.Shards,
		ConfigHash:   f.ConfigHash,
		Quick:        f.Quick,
		WallMS:       f.WallMS,
		RoundsPerSec: f.RoundsPerSec,
		SetupMS:      f.SetupMS,
		Cache:        f.Cache,
	}
}

// AppendHistory grafts prev's trajectory onto f: prev's own history,
// then prev's measurement as the newest prior entry. The fresh run in
// f's top-level fields stays the file's current measurement.
func (f *File) AppendHistory(prev *File) {
	f.History = append(append([]HistoryEntry(nil), prev.History...), prev.Snapshot())
}

// Grid is one named pinned benchmark matrix.
type Grid struct {
	Name    string
	Summary string
	// OptIn excludes the grid from "run everything" sweeps (cmd/bench
	// -grid all): it only runs when named explicitly. Minutes-scale grids
	// like "huge" use it so the default regeneration loop stays fast.
	OptIn bool
	// matrix builds the grid's campaign matrix; quick selects the
	// seconds-scale CI variant instead of the pinned full scale.
	matrix func(quick bool) campaign.Matrix
}

// Matrix returns the grid's campaign matrix (a fresh copy per call).
func (g Grid) Matrix(quick bool) campaign.Matrix { return g.matrix(quick) }

// The pinned grids. Full scale is n ∈ {1e4, 1e5} on sparse random trees —
// the topology family the ROADMAP's large-n items benchmark — with enough
// seeds that per-config means are stable but a full run stays in minutes.
var grids = map[string]Grid{
	"decay": {
		Name:    "decay",
		Summary: "oblivious Decay-family broadcast (bgi, truncated-decay) at n=1e4/1e5: the per-round engine hot path",
		matrix: func(quick bool) campaign.Matrix {
			m := campaign.Matrix{
				Topologies: []string{"randtree:10000", "randtree:100000"},
				Algorithms: []campaign.AlgoSpec{
					{Task: campaign.Broadcast, Algo: "bgi"},
					{Task: campaign.Broadcast, Algo: "truncated-decay"},
				},
				Seeds:      3,
				MasterSeed: 1,
			}
			if quick {
				m.Topologies = []string{"randtree:2000"}
				m.Seeds = 2
			}
			return m
		},
	},
	"compete": {
		Name:    "compete",
		Summary: "the paper's cd17 clustering pipeline at n=1e4/1e5: precomputation plus the bulk broadcast path",
		matrix: func(quick bool) campaign.Matrix {
			m := campaign.Matrix{
				Topologies: []string{"randtree:10000", "randtree:100000"},
				Algorithms: []campaign.AlgoSpec{
					{Task: campaign.Broadcast, Algo: "cd17"},
				},
				Seeds:      2,
				MasterSeed: 1,
			}
			if quick {
				m.Topologies = []string{"randtree:2000"}
			}
			return m
		},
	},
	"huge": {
		Name:    "huge",
		Summary: "opt-in n=1e6 Decay-family stress grid (bgi, truncated-decay): the sharded delivery-kernel scale target",
		OptIn:   true,
		matrix: func(quick bool) campaign.Matrix {
			m := campaign.Matrix{
				Topologies: []string{"randtree:1000000"},
				Algorithms: []campaign.AlgoSpec{
					{Task: campaign.Broadcast, Algo: "bgi"},
					{Task: campaign.Broadcast, Algo: "truncated-decay"},
				},
				Seeds:      1,
				MasterSeed: 1,
			}
			if quick {
				m.Topologies = []string{"randtree:200000"}
			}
			return m
		},
	},
}

// Grids lists the pinned grids in name order.
func Grids() []Grid {
	names := make([]string, 0, len(grids))
	for n := range grids {
		names = append(names, n)
	}
	sort.Strings(names)
	out := make([]Grid, len(names))
	for i, n := range names {
		out[i] = grids[n]
	}
	return out
}

// LookupGrid resolves a grid by name.
func LookupGrid(name string) (Grid, bool) {
	g, ok := grids[name]
	return g, ok
}

// Run executes one grid and assembles its File. workers 0 means
// GOMAXPROCS; shards is the campaign's EngineShards knob (0 = auto-split
// spare cores on large graphs, 1 = off — sharding never changes the
// measured output, only the wall times); store is the optional precompute
// disk cache (nil = off — caching never changes the measured output
// either, only the setup-phase wall time the file now reports). The run
// itself is silent (no sinks) — the measurements come from the campaign's
// telemetry surface.
func Run(g Grid, quick bool, workers, shards int, store *precompute.Store) (*File, error) {
	m := g.Matrix(quick)
	var st campaign.RunStats
	c := campaign.Campaign{Matrix: m, Workers: workers, EngineShards: shards, Cache: store, Obs: obs.NewRegistry(), Stats: &st}
	if _, err := c.Run(); err != nil {
		return nil, fmt.Errorf("bench: grid %s: %w", g.Name, err)
	}
	f := FromStats(g.Name, m, &st, c.Obs)
	f.Quick = quick
	return f, nil
}

// FromStats assembles a File from an already-executed campaign's matrix,
// RunStats and registry — the seam cmd/campaign -bench-out uses to emit
// bench records for ad-hoc matrices (grid name "custom").
func FromStats(grid string, m campaign.Matrix, st *campaign.RunStats, reg *obs.Registry) *File {
	man := obs.NewManifest("bench")
	f := &File{
		SchemaVersion: SchemaVersion,
		Grid:          grid,
		Go:            man.GoVersion,
		GOMAXPROCS:    man.GOMAXPROCS,
		ConfigHash:    m.Hash(),
	}
	if st != nil {
		f.Workers = st.Workers
		f.Shards = st.Shards
		f.WallMS = float64(st.Wall.Nanoseconds()) / 1e6
		f.SetupMS = float64(st.Setup.Nanoseconds()) / 1e6
		f.Cache = st.Cache
		for _, cs := range st.Configs {
			rec := obs.ConfigRecord{
				Name:        cs.Name,
				N:           cs.N,
				D:           cs.D,
				Trials:      cs.Trials,
				Failures:    cs.Failures,
				RoundsMean:  cs.RoundsMean,
				WallMSTotal: float64(cs.Wall.Nanoseconds()) / 1e6,
				SetupMS:     float64(cs.Setup.Nanoseconds()) / 1e6,
			}
			if cs.Trials > 0 {
				rec.WallMSMean = rec.WallMSTotal / float64(cs.Trials)
			}
			f.Entries = append(f.Entries, rec)
		}
	}
	if reg != nil {
		f.RoundsPerSec = float64(reg.Gauge(obs.EngineRoundsPerSec).Value())
	}
	return f
}

// Parse decodes and validates a bench file. Only the current schema
// version parses, and unknown fields are rejected, so schema drift fails
// loudly in CI rather than silently dropping data.
func Parse(b []byte) (*File, error) {
	var ver struct {
		SchemaVersion int `json:"schema_version"`
	}
	if err := json.Unmarshal(b, &ver); err != nil {
		return nil, fmt.Errorf("bench: %w", err)
	}
	// The version check comes first so a file from another schema fails
	// on its version rather than on whichever field it added or dropped.
	if err := checkVersion(ver.SchemaVersion); err != nil {
		return nil, err
	}
	var f File
	if err := strictUnmarshal(b, &f); err != nil {
		return nil, fmt.Errorf("bench: %w", err)
	}
	if err := f.Validate(); err != nil {
		return nil, err
	}
	return &f, nil
}

func checkVersion(v int) error {
	if v != SchemaVersion {
		return fmt.Errorf("bench: schema_version %d, supported %d", v, SchemaVersion)
	}
	return nil
}

// ParseFile is Parse over a file path.
func ParseFile(path string) (*File, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("bench: %w", err)
	}
	f, err := Parse(b)
	if err != nil {
		return nil, fmt.Errorf("bench: %s: %w", path, err)
	}
	return f, nil
}

// Validate checks the file's internal consistency: the supported schema
// version and sane per-entry invariants.
func (f *File) Validate() error {
	if err := checkVersion(f.SchemaVersion); err != nil {
		return err
	}
	if f.Shards < 0 {
		return fmt.Errorf("bench: negative shards %d", f.Shards)
	}
	if f.SetupMS < 0 {
		return fmt.Errorf("bench: negative setup_ms %v", f.SetupMS)
	}
	if err := validCache(f.Cache); err != nil {
		return err
	}
	for i, h := range f.History {
		if h.WallMS < 0 || h.RoundsPerSec < 0 || h.Shards < 0 || h.SetupMS < 0 {
			return fmt.Errorf("bench: grid %s history entry %d: negative measurement", f.Grid, i)
		}
		if err := validCache(h.Cache); err != nil {
			return fmt.Errorf("bench: grid %s history entry %d: %w", f.Grid, i, err)
		}
	}
	if f.Grid == "" {
		return fmt.Errorf("bench: missing grid name")
	}
	if len(f.Entries) == 0 {
		return fmt.Errorf("bench: grid %s has no entries", f.Grid)
	}
	for i, e := range f.Entries {
		switch {
		case e.Name == "":
			return fmt.Errorf("bench: grid %s entry %d: missing name", f.Grid, i)
		case e.Trials <= 0:
			return fmt.Errorf("bench: grid %s entry %s: trials %d", f.Grid, e.Name, e.Trials)
		case e.Failures < 0 || e.Failures > e.Trials:
			return fmt.Errorf("bench: grid %s entry %s: failures %d of %d trials", f.Grid, e.Name, e.Failures, e.Trials)
		case e.RoundsMean < 0 || e.WallMSTotal < 0 || e.WallMSMean < 0 || e.SetupMS < 0:
			return fmt.Errorf("bench: grid %s entry %s: negative measurement", f.Grid, e.Name)
		}
	}
	return nil
}

// validCache checks a cache-status value: empty (a run predating the
// field) or one of the three campaign statuses.
func validCache(c string) error {
	switch c {
	case "", "off", "cold", "warm":
		return nil
	}
	return fmt.Errorf("bench: unknown cache status %q", c)
}

// WriteFile writes the bench file as indented JSON to path.
func (f *File) WriteFile(path string) error {
	b, err := json.MarshalIndent(f, "", "  ")
	if err != nil {
		return fmt.Errorf("bench: %w", err)
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

func strictUnmarshal(b []byte, v any) error {
	dec := json.NewDecoder(bytes.NewReader(b))
	dec.DisallowUnknownFields()
	return dec.Decode(v)
}
