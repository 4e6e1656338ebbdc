// Package precompute is the keyed, shared, cache-backed store for the
// expensive topology products the campaign and bench setup phases need
// before the first simulated round: the built graph, its diameter
// estimate, and the warmed dense-adjacency layer. Products are identified
// by a content key (canonical topology spec + topology seed); each key is
// built at most once per process, concurrently deduplicated, and shared by
// every config/trial that references it. A store may additionally be
// backed by an on-disk cache directory, in which case products persist
// across processes under a stable content hash — a warm rerun of a pinned
// grid skips graph construction entirely (see DESIGN.md §12).
//
// Determinism contract: a product loaded from disk is byte-equivalent to
// one built from source (the codec round-trips the exact CSR arrays, and
// the diameter estimate is stored rather than recomputed), so sink output
// is identical with the cache off, cold, or warm. Corrupt or stale cache
// files are never trusted: any decode failure falls back silently to a
// rebuild, which overwrites the bad file.
package precompute

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"sync"

	"radionet/internal/graph"
)

// Key identifies a topology product by content: the canonical topology
// spec string (as printed by campaign.Topology.Spec) and the seed fed to
// its generator. Two configs with equal keys build identical graphs.
type Key struct {
	Spec string
	Seed uint64
}

// hashDomain separates the cache-file namespace from any other sha256 use
// and pins the codec schema: bumping codecVersion changes every hash, so
// old cache files are simply never found rather than misdecoded.
const hashDomain = "radionet-precompute\x00v1\x00"

// Hash returns the stable content hash used as the on-disk file stem.
func (k Key) Hash() string {
	h := sha256.New()
	h.Write([]byte(hashDomain))
	h.Write([]byte(k.Spec))
	h.Write([]byte{0})
	var seed [8]byte
	binary.LittleEndian.PutUint64(seed[:], k.Seed)
	h.Write(seed[:])
	return hex.EncodeToString(h.Sum(nil))
}

// Product is the bundle of setup-phase artifacts for one key. The graph's
// dense-adjacency layer is warmed eagerly at build/load time so no trial
// pays for it on first use.
type Product struct {
	G *graph.Graph
	D int // graph.DiameterEstimate, computed once and cached on disk
}

// Source reports where a GetOrBuild result came from.
type Source int

const (
	// SourceBuilt: constructed from the generator in this call.
	SourceBuilt Source = iota
	// SourceMemory: another GetOrBuild on this store already produced it.
	SourceMemory
	// SourceDisk: decoded from the store's cache directory.
	SourceDisk
)

// String returns the manifest-facing name of the source.
func (s Source) String() string {
	switch s {
	case SourceBuilt:
		return "built"
	case SourceMemory:
		return "memory"
	case SourceDisk:
		return "disk"
	}
	return "unknown"
}

// Outcome describes how one GetOrBuild call was satisfied.
type Outcome struct {
	Source Source
	Bytes  int64 // cache file bytes read (disk hit) or written (cold save)
}

// Store deduplicates product construction by key, optionally backed by an
// on-disk cache directory. The zero value and the nil pointer are both
// usable: a nil store deduplicates nothing and always builds. A Store is
// safe for concurrent use; concurrent GetOrBuild calls for distinct keys
// build in parallel, calls for the same key build once.
type Store struct {
	dir string // "" = memory-only

	mu      sync.Mutex
	entries map[Key]*entry
}

type entry struct {
	once  sync.Once
	p     Product
	src   Source
	bytes int64
}

// NewStore returns a store backed by the given cache directory; an empty
// dir yields a memory-only store (in-process dedup, no persistence).
func NewStore(dir string) *Store {
	return &Store{dir: dir, entries: make(map[Key]*entry)}
}

// Dir returns the cache directory, or "" for a memory-only (or nil) store.
func (s *Store) Dir() string {
	if s == nil {
		return ""
	}
	return s.dir
}

// GetOrBuild returns the product for k, building it with build only if no
// prior call on this store produced it and (for disk-backed stores) no
// valid cache file exists. The outcome reports the source as seen by this
// call: the caller that actually populates the entry sees Built or Disk;
// every later caller sees Memory.
func (s *Store) GetOrBuild(k Key, build func() *graph.Graph) (Product, Outcome) {
	if s == nil {
		return buildProduct(build), Outcome{Source: SourceBuilt}
	}
	s.mu.Lock()
	if s.entries == nil {
		s.entries = make(map[Key]*entry)
	}
	e, ok := s.entries[k]
	if !ok {
		e = &entry{}
		s.entries[k] = e
	}
	s.mu.Unlock()

	ran := false
	e.once.Do(func() {
		ran = true
		if s.dir != "" {
			if p, n, err := s.loadDisk(k); err == nil {
				// Disk hits warm the bitset layer exactly like source
				// builds, so the cache never moves that cost silently
				// into the first trial.
				p.G.DenseAdj()
				e.p, e.src, e.bytes = p, SourceDisk, n
				return
			}
			// Missing, corrupt, or stale: rebuild from source and refresh
			// the cache file (best effort — a read-only cache dir only
			// costs the persistence, never the run).
			e.p = buildProduct(build)
			e.src = SourceBuilt
			e.bytes = s.saveDisk(k, e.p)
			return
		}
		e.p = buildProduct(build)
		e.src = SourceBuilt
	})
	if !ran {
		return e.p, Outcome{Source: SourceMemory}
	}
	return e.p, Outcome{Source: e.src, Bytes: e.bytes}
}

func buildProduct(build func() *graph.Graph) Product {
	g := build()
	d := g.DiameterEstimate()
	g.DenseAdj() // warm the bitset layer off the trial path
	return Product{G: g, D: d}
}
