// Run statistics and manifests: the non-deterministic execution record of
// a campaign — wall times, worker counts — collected strictly outside the
// sink stream, so enabling telemetry never changes a byte of deterministic
// output. RunStats is the in-process form; Campaign.Manifest renders it
// into the machine-readable obs.Manifest schema shared by every tool.

package campaign

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"time"

	"radionet/internal/obs"
	"radionet/internal/protocol"
)

// Name identifies the configuration in progress lines and manifests:
// "topology/task:algo", plus the fault spec when the cell sits on a fault
// axis.
func (cfg *Config) Name() string {
	s := cfg.Topology + "/" + cfg.Spec.String()
	if cfg.Fault.Spec != "" {
		s += "/" + cfg.Fault.Spec
	}
	return s
}

// RunStats is the execution record of one Campaign.Run: everything a
// manifest needs that the deterministic summaries cannot carry. Point
// Campaign.Stats at a zero RunStats and Run fills it.
type RunStats struct {
	// Wall is the whole-run wall time (expansion through last trial),
	// excluding Setup — the semantics Wall has always had: the setup
	// phase ran before the run clock started even when it was serial and
	// anonymous.
	Wall time.Duration
	// Setup is the setup-phase wall time: topology materialization (graph
	// build or precompute-cache load), measured from expansion to the
	// first trial dispatch. Each trial builds its algorithm's own
	// precomputation inside Build, so that cost is part of Wall.
	Setup time.Duration
	// Cache is the precompute disk-cache status: "off" (no cache
	// attached), "cold" (at least one product built from source), "warm"
	// (every product served without building).
	Cache string
	// Workers is the resolved worker-pool size the run executed with.
	Workers int
	// Shards is the largest intra-round shard count any configuration ran
	// with (1 when sharding was off or no configuration qualified for the
	// auto split — see Campaign.EngineShards).
	Shards int
	// Configs holds per-configuration stats, in configuration order.
	Configs []ConfigStats
}

// ConfigStats is one configuration's slice of RunStats.
type ConfigStats struct {
	// Name is the configuration identifier (Config.Name).
	Name string
	N, D int
	// Trials and Failures mirror the configuration's ConfigSummary.
	Trials, Failures int
	// RoundsMean is the mean executed round count across the trials.
	RoundsMean float64
	// Wall is the summed execution time of the configuration's trials. It
	// overlaps across workers, so config walls may sum past RunStats.Wall.
	Wall time.Duration
	// Setup is the setup time attributed to this configuration: the
	// build/load wall of every deduplicated topology product charged to
	// its first referencing configuration — so sibling configs sharing a
	// product report 0, and summing Setup over configs never
	// double-counts shared work.
	Setup time.Duration
}

// Hash fingerprints the matrix: the hex sha256 of its canonical JSON
// encoding. Identical matrices hash identically across machines and
// commits, which is what makes manifests from repeated runs linkable.
func (m Matrix) Hash() string {
	b, err := json.Marshal(m)
	if err != nil {
		return "" // unreachable: every Matrix field marshals
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

// RegisteredProtocols lists the full protocol registry as "task:name" —
// the manifest convention for recording what the binary could have run.
func RegisteredProtocols() []string {
	var out []string
	for _, t := range protocol.Tasks() {
		for _, d := range protocol.ByTask(t) {
			out = append(out, string(d.Task)+":"+d.Name)
		}
	}
	return out
}

// Manifest renders the run's machine-readable record from the campaign's
// configuration, the RunStats a Run filled (nil for a manifest without
// execution stats) and the campaign's metric registry.
func (c *Campaign) Manifest(tool string, st *RunStats) *obs.Manifest {
	m := obs.NewManifest(tool)
	m.ConfigHash = c.Matrix.Hash()
	m.Protocols = RegisteredProtocols()
	if st != nil {
		m.Workers = st.Workers
		m.Shards = st.Shards
		m.WallMS = durMS(st.Wall)
		m.SetupMS = durMS(st.Setup)
		m.Cache = st.Cache
		for _, cs := range st.Configs {
			rec := obs.ConfigRecord{
				Name:        cs.Name,
				N:           cs.N,
				D:           cs.D,
				Trials:      cs.Trials,
				Failures:    cs.Failures,
				RoundsMean:  cs.RoundsMean,
				WallMSTotal: durMS(cs.Wall),
				SetupMS:     durMS(cs.Setup),
			}
			if cs.Trials > 0 {
				rec.WallMSMean = rec.WallMSTotal / float64(cs.Trials)
			}
			m.Configs = append(m.Configs, rec)
		}
	}
	m.Metrics = c.Obs.Snapshot()
	return m
}

func durMS(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }
