// The transport seam: the synchronous-round contract — advertise transmit
// intents, resolve interference, deliver singleton/collision/silence
// observations, advance the round barrier — split out of Engine.Step so
// the same Engine (and every protocol above it) can run over pluggable
// round executors. The in-process simulator (internal/radio/simbackend)
// is the identity backend: it attaches nothing and the engine runs
// exactly as before. A message-passing backend
// (internal/radio/lockstep) installs a Driver, after which the engine
// stops calling protocol code directly: transmit intents come back from
// Driver.ActAll and every listener outcome leaves through
// Driver.Observe, while all interference physics — marking, collision
// algebra, the FaultPlan overlay, sharding, metrics, hooks — stay on the
// engine side. That split is the determinism argument: protocol
// randomness is consumed node-locally in the same order as the in-process
// per-node loops, and everything order-sensitive runs on the engine's
// single goroutine, so the two realizations are observationally identical
// round-for-round.

package radio

import (
	"fmt"
	"sort"
	"strings"
	"sync"
)

// Driver is the engine side of a pluggable round executor. When one is
// installed (SetDriver), Engine.Step routes the two protocol-facing
// halves of a round through it instead of calling Node methods directly:
//
//   - ActAll replaces the per-node Act loop: the engine hands over the
//     live (non-crashed) node ids for the round and the driver returns
//     the transmit intents, exactly as if Act had been called on every
//     live node in ascending id order — same transmitters, same
//     messages, same per-node randomness consumed. Dormant Sleeper nodes
//     are polled too (they promise to Listen and consume no randomness),
//     so the driver needs no dormancy bookkeeping.
//   - Observe replaces every listener Recv call, in the engine's replay
//     order (deliveries, then collision reports, then silences, each in
//     ascending node id). msg follows the Recv aliasing contract: valid
//     only for the duration of the call, read-only.
//
// Interference resolution, fault overlays, metrics and hooks never cross
// the seam — they are engine physics, computed from the shared topology
// by whatever process hosts the engine (the lockstep coordinator's role).
type Driver interface {
	// ActAll appends the ids (ascending) and messages of this round's
	// transmitters among the live nodes to tx and msgs and returns the
	// extended slices. live is engine scratch, valid only for the
	// duration of the call.
	ActAll(round int64, live []int32, tx []int32, msgs []Message) ([]int32, []Message)
	// Observe reports one listener outcome to node v — the exact
	// arguments of the Recv call the in-process engine would have made.
	Observe(round int64, v int32, msg *Message, collided bool)
}

// SetDriver installs a round-executor driver (see Driver). It must be
// called before the first Step, at most once. Installing a driver clears
// the Bulk/BulkRecv fast paths (their contracts make them observationally
// identical to the per-node calls the driver now carries) and the
// dormancy skip-list (dormant nodes are polled through the driver; by the
// Sleeper contract the extra Act and silence calls are no-ops that
// consume no randomness), so a driven engine and an in-process engine
// produce identical transmitters, deliveries, collisions, metrics and
// hook traces. Engines holding Mortal wrapper nodes are rejected: the
// legacy polled-crash path reads node state from the engine goroutine,
// which a remote-node driver cannot allow — use the engine-side
// FaultPlan overlay instead.
func (e *Engine) SetDriver(d Driver) {
	if d == nil {
		return
	}
	if e.round != 0 || e.driver != nil {
		panic("radio: SetDriver must be called once, before the first Step")
	}
	if len(e.mortals) > 0 {
		panic("radio: SetDriver is incompatible with Mortal wrapper nodes; install an engine-side FaultPlan instead")
	}
	e.driver = d
	e.Bulk = nil
	e.BulkRecv = nil
	e.rangeBulk = nil
	for w := range e.dormw {
		e.dormw[w] = 0
	}
}

// Driver returns the installed round-executor driver (nil for the
// in-process simulator path).
func (e *Engine) Driver() Driver { return e.driver }

// Transport is a round-executor backend, the engine-level analogue of a
// protocol Descriptor: a named factory product that binds a constructed
// engine to an execution substrate. The simulator backend's Attach is a
// no-op (the engine already is the in-process executor); message-passing
// backends spawn their node loops over e.Nodes and install a Driver via
// e.SetDriver. Attach must be called after the protocol has finished
// configuring the engine (nodes, Bulk, faults, shards) and before the
// first Step; it panics on misuse, like SetShards/SetFaults. Close
// releases whatever the backend holds (goroutines, sockets); it must be
// idempotent and safe to call whether or not the run completed, so
// budget-exhausted runs shut down as cleanly as finished ones.
type Transport interface {
	// Name returns the backend's registered name.
	Name() string
	// Attach binds the backend to e (at most one engine per Transport).
	Attach(e *Engine)
	// Close shuts the backend down and waits for its resources.
	Close() error
}

// TransportInfo describes one registered backend for listings.
type TransportInfo struct {
	Name    string
	Summary string
}

// The transport registry mirrors the protocol registry: populated by
// backend-package init functions, read-only afterwards; the mutex exists
// for the registration phase and for tests.
var (
	transportMu  sync.RWMutex
	transportReg = map[string]transportEntry{}
)

type transportEntry struct {
	summary string
	factory func() Transport
}

// RegisterTransport adds a backend factory to the registry. It panics on
// invalid or duplicate registrations — registration happens at init
// time, and a broken registry is a programming error.
func RegisterTransport(name, summary string, factory func() Transport) {
	if name == "" || factory == nil {
		panic("radio: RegisterTransport needs a name and a factory")
	}
	transportMu.Lock()
	defer transportMu.Unlock()
	if _, dup := transportReg[name]; dup {
		panic(fmt.Sprintf("radio: duplicate transport registration %q", name))
	}
	transportReg[name] = transportEntry{summary: summary, factory: factory}
}

// NewTransport builds a fresh backend instance by registered name. A
// Transport is single-use: build one per engine and Close it when the
// run ends.
func NewTransport(name string) (Transport, error) {
	transportMu.RLock()
	ent, ok := transportReg[name]
	transportMu.RUnlock()
	if !ok {
		return nil, fmt.Errorf("radio: unknown transport %q (known: %s)", name, KnownTransports())
	}
	return ent.factory(), nil
}

// KnownTransport reports whether name is a registered backend.
func KnownTransport(name string) bool {
	transportMu.RLock()
	defer transportMu.RUnlock()
	_, ok := transportReg[name]
	return ok
}

// Transports returns the registered backends sorted by name.
func Transports() []TransportInfo {
	transportMu.RLock()
	defer transportMu.RUnlock()
	out := make([]TransportInfo, 0, len(transportReg))
	for name, ent := range transportReg {
		out = append(out, TransportInfo{Name: name, Summary: ent.summary})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// KnownTransports renders the registered backend names for error
// messages ("lockstep lockstep-tcp sim").
func KnownTransports() string {
	ts := Transports()
	names := make([]string, len(ts))
	for i, t := range ts {
		names[i] = t.Name
	}
	return strings.Join(names, " ")
}
