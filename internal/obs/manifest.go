// Run manifests: a machine-readable record of what a run was (config
// hash, registered protocol set, parallelism) and what it measured
// (per-config wall times, the full metric snapshot). Campaigns and
// one-shot radiosim runs emit the same shape, which is the point: one
// schema for every tool.

package obs

import (
	"encoding/json"
	"fmt"
	"os"
	"runtime"
)

// ManifestSchemaVersion is bumped on any incompatible Manifest change.
const ManifestSchemaVersion = 1

// ConfigRecord is one configuration's execution record in a manifest.
type ConfigRecord struct {
	// Name identifies the configuration: "topology/task:algo"; a
	// one-shot run uses its scenario string.
	Name string `json:"name"`
	// N and D are the topology size and estimated diameter.
	N int `json:"n"`
	D int `json:"d"`
	// Trials and Failures count the configuration's runs.
	Trials   int `json:"trials"`
	Failures int `json:"failures"`
	// RoundsMean is the mean executed round count.
	RoundsMean float64 `json:"rounds_mean"`
	// WallMSTotal and WallMSMean are summed / per-trial mean wall time in
	// milliseconds (non-deterministic; manifests are telemetry, not
	// golden output).
	WallMSTotal float64 `json:"wall_ms_total"`
	WallMSMean  float64 `json:"wall_ms_mean"`
	// SetupMS is the setup wall time attributed to this configuration:
	// its share of topology materialization (graph build or cache load).
	// Deduplicated products are charged to the first configuration
	// referencing them, so most records report 0
	// (omitted — also keeping manifests from producers predating the
	// setup split byte-stable).
	SetupMS float64 `json:"setup_ms,omitempty"`
}

// Manifest is the machine-readable record of one run.
type Manifest struct {
	SchemaVersion int    `json:"schema_version"`
	Tool          string `json:"tool"` // "campaign", "radiosim"
	// ConfigHash fingerprints the run's full configuration (for a
	// campaign: the canonical matrix JSON), so manifests from identical
	// setups are linkable across machines and commits.
	ConfigHash string `json:"config_hash"`
	// Generated is an RFC3339 timestamp (empty when the producer wants
	// byte-reproducible manifests).
	Generated string `json:"generated,omitempty"`
	// GoVersion, GOMAXPROCS and Workers record the execution environment.
	GoVersion  string `json:"go"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	Workers    int    `json:"workers"`
	// Shards is the largest intra-round engine shard count any
	// configuration ran with, so multi-core runs can be attributed.
	// Omitted by producers predating the field.
	Shards int `json:"shards,omitempty"`
	// Protocols is the registered (task:name) set the binary carried.
	Protocols []string `json:"protocols"`
	// WallMS is the whole run's wall time in milliseconds.
	WallMS float64 `json:"wall_ms"`
	// SetupMS is the setup-phase wall time (topology materialization,
	// before the first trial), excluded from WallMS. Omitted by radiosim,
	// whose topology is built before its run, and by producers predating
	// the setup split.
	SetupMS float64 `json:"setup_ms,omitempty"`
	// Cache reports the precompute disk-cache status for the run: "off"
	// (no cache directory), "cold" (at least one product rebuilt from
	// source), or "warm" (every product served from cache or memory).
	// Omitted by producers predating the cache.
	Cache string `json:"cache,omitempty"`
	// Configs are the per-configuration records, in run order.
	Configs []ConfigRecord `json:"configs"`
	// Metrics is the final registry snapshot.
	Metrics Snapshot `json:"metrics"`
}

// NewManifest returns a Manifest with the environment fields filled.
func NewManifest(tool string) *Manifest {
	return &Manifest{
		SchemaVersion: ManifestSchemaVersion,
		Tool:          tool,
		GoVersion:     runtime.Version(),
		GOMAXPROCS:    runtime.GOMAXPROCS(0),
	}
}

// WriteFile writes the manifest as indented JSON to path.
func (m *Manifest) WriteFile(path string) error {
	b, err := json.MarshalIndent(m, "", "  ")
	if err != nil {
		return fmt.Errorf("obs: manifest: %w", err)
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}
