package precompute

import (
	"bytes"
	"crypto/sha256"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"testing"

	"radionet/internal/graph"
	"radionet/internal/rng"
)

func buildRandTree(n int, seed uint64) func() *graph.Graph {
	return func() *graph.Graph { return graph.RandomTree(n, rng.New(seed)) }
}

func sameGraph(t *testing.T, a, b *graph.Graph) {
	t.Helper()
	if a.N() != b.N() || a.M() != b.M() || a.Name() != b.Name() {
		t.Fatalf("graph mismatch: %s vs %s", a, b)
	}
	for v := 0; v < a.N(); v++ {
		na, nb := a.Neighbors(v), b.Neighbors(v)
		if len(na) != len(nb) {
			t.Fatalf("node %d degree mismatch", v)
		}
		for i := range na {
			if na[i] != nb[i] {
				t.Fatalf("node %d neighbor mismatch", v)
			}
		}
	}
}

// TestMemoryDedup: concurrent GetOrBuild calls for one key build exactly
// once; distinct keys build separately.
func TestMemoryDedup(t *testing.T) {
	s := NewStore("")
	var builds atomic.Int32
	build := func() *graph.Graph {
		builds.Add(1)
		return graph.RandomTree(200, rng.New(7))
	}
	k := Key{Spec: "randtree:200", Seed: 7}
	var wg sync.WaitGroup
	outs := make([]Outcome, 16)
	for i := range outs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			_, outs[i] = s.GetOrBuild(k, build)
		}(i)
	}
	wg.Wait()
	if got := builds.Load(); got != 1 {
		t.Fatalf("build ran %d times, want 1", got)
	}
	nBuilt := 0
	for _, o := range outs {
		switch o.Source {
		case SourceBuilt:
			nBuilt++
		case SourceMemory:
		default:
			t.Fatalf("unexpected source %v", o.Source)
		}
	}
	if nBuilt != 1 {
		t.Fatalf("%d callers saw SourceBuilt, want 1", nBuilt)
	}
	if _, out := s.GetOrBuild(Key{Spec: "randtree:200", Seed: 8}, buildRandTree(200, 8)); out.Source != SourceBuilt {
		t.Fatalf("distinct key source = %v, want built", out.Source)
	}
	if builds.Load() != 1 {
		t.Fatal("distinct key reused the wrong entry")
	}
}

// TestNilStore: a nil store always builds and never panics.
func TestNilStore(t *testing.T) {
	var s *Store
	p, out := s.GetOrBuild(Key{Spec: "randtree:50", Seed: 3}, buildRandTree(50, 3))
	if out.Source != SourceBuilt || p.G.N() != 50 || p.D <= 0 {
		t.Fatalf("nil store: product %v outcome %v", p, out)
	}
	if s.Dir() != "" {
		t.Fatal("nil store Dir")
	}
}

// TestDiskRoundTrip: a cold store writes a cache file; a fresh store over
// the same directory loads it byte-equivalently (same CSR, same diameter)
// without invoking the builder.
func TestDiskRoundTrip(t *testing.T) {
	dir := t.TempDir()
	k := Key{Spec: "randtree:300", Seed: 11}

	cold := NewStore(dir)
	p1, out1 := cold.GetOrBuild(k, buildRandTree(300, 11))
	if out1.Source != SourceBuilt || out1.Bytes <= 0 {
		t.Fatalf("cold outcome %+v, want built with bytes written", out1)
	}

	warm := NewStore(dir)
	p2, out2 := warm.GetOrBuild(k, func() *graph.Graph {
		t.Fatal("warm load invoked the builder")
		return nil
	})
	if out2.Source != SourceDisk || out2.Bytes != out1.Bytes {
		t.Fatalf("warm outcome %+v, want disk with %d bytes", out2, out1.Bytes)
	}
	sameGraph(t, p1.G, p2.G)
	if p1.D != p2.D {
		t.Fatalf("diameter mismatch: %d vs %d", p1.D, p2.D)
	}
}

// TestCorruptFileRebuilds flips bytes at several offsets in a valid cache
// file; every corruption must be detected and silently repaired by a
// rebuild that rewrites the file.
func TestCorruptFileRebuilds(t *testing.T) {
	dir := t.TempDir()
	k := Key{Spec: "randtree:150", Seed: 5}
	NewStore(dir).GetOrBuild(k, buildRandTree(150, 5))
	path := filepath.Join(dir, k.Hash()+".rnp")
	orig, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// Offsets spanning magic, header, CSR payload, and checksum, plus a
	// truncation and an empty file.
	mutations := []func([]byte) []byte{
		func(b []byte) []byte { b[0] ^= 0xff; return b },        // magic
		func(b []byte) []byte { b[5] ^= 0x01; return b },        // version
		func(b []byte) []byte { b[len(b)/2] ^= 0x40; return b }, // payload
		func(b []byte) []byte { b[len(b)-1] ^= 0x80; return b }, // checksum
		func(b []byte) []byte { return b[:len(b)-7] },           // truncated
		func(b []byte) []byte { return nil },                    // empty
	}
	for i, mutate := range mutations {
		if err := os.WriteFile(path, mutate(append([]byte(nil), orig...)), 0o644); err != nil {
			t.Fatal(err)
		}
		built := false
		p, out := NewStore(dir).GetOrBuild(k, func() *graph.Graph {
			built = true
			return graph.RandomTree(150, rng.New(5))
		})
		if !built || out.Source != SourceBuilt {
			t.Fatalf("mutation %d: corrupt file was trusted (source %v)", i, out.Source)
		}
		if p.G.N() != 150 {
			t.Fatalf("mutation %d: bad rebuild", i)
		}
		repaired, err := os.ReadFile(path)
		if err != nil {
			t.Fatalf("mutation %d: cache file not rewritten: %v", i, err)
		}
		if string(repaired) != string(orig) {
			t.Fatalf("mutation %d: rewritten file differs from original encode", i)
		}
	}
}

// TestKeyMismatchRebuilds: a cache file renamed onto another key's hash
// (or a key whose spec changed under the same filename) is rejected by the
// embedded spec/seed echo.
func TestKeyMismatchRebuilds(t *testing.T) {
	dir := t.TempDir()
	k1 := Key{Spec: "randtree:120", Seed: 1}
	k2 := Key{Spec: "randtree:120", Seed: 2}
	NewStore(dir).GetOrBuild(k1, buildRandTree(120, 1))
	// Masquerade k1's file as k2's.
	data, err := os.ReadFile(filepath.Join(dir, k1.Hash()+".rnp"))
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, k2.Hash()+".rnp"), data, 0o644); err != nil {
		t.Fatal(err)
	}
	built := false
	_, out := NewStore(dir).GetOrBuild(k2, func() *graph.Graph {
		built = true
		return graph.RandomTree(120, rng.New(2))
	})
	if !built || out.Source != SourceBuilt {
		t.Fatalf("renamed cache file satisfied the wrong key (source %v)", out.Source)
	}
}

// TestReadOnlyDirBuilds: an unwritable cache directory degrades to
// build-only (no persistence, no error).
func TestReadOnlyDirBuilds(t *testing.T) {
	if os.Geteuid() == 0 {
		t.Skip("root ignores directory permissions")
	}
	dir := t.TempDir()
	if err := os.Chmod(dir, 0o555); err != nil {
		t.Fatal(err)
	}
	defer os.Chmod(dir, 0o755)
	p, out := NewStore(dir).GetOrBuild(Key{Spec: "randtree:60", Seed: 4}, buildRandTree(60, 4))
	if out.Source != SourceBuilt || out.Bytes != 0 || p.G.N() != 60 {
		t.Fatalf("read-only dir: outcome %+v", out)
	}
}

// TestHashStability pins the content hash so the cache file namespace
// cannot silently drift (a drift would orphan every existing cache).
func TestHashStability(t *testing.T) {
	h := Key{Spec: "randtree:100000", Seed: 42}.Hash()
	const want = 64
	if len(h) != want {
		t.Fatalf("hash length %d, want %d", len(h), want)
	}
	if h2 := (Key{Spec: "randtree:100000", Seed: 43}).Hash(); h2 == h {
		t.Fatal("seed change did not change hash")
	}
	if h2 := (Key{Spec: "randtree:100001", Seed: 42}).Hash(); h2 == h {
		t.Fatal("spec change did not change hash")
	}
}

// FuzzDecode holds the cache-file decoder to its contract on arbitrary
// bytes: an error, or a product whose CSR passes graph.FromCSR and which
// re-encodes to exactly the decoded bytes; never a panic. Each input is
// tried as a whole file and, because random bytes almost never match the
// trailing sha256, once more resealed with a fresh checksum so the
// structural checks behind it get exercised too.
func FuzzDecode(f *testing.F) {
	k := Key{Spec: "randtree:16", Seed: 3}
	g := buildRandTree(16, 3)()
	f.Add(encode(k, Product{G: g, D: g.DiameterEstimate()}))
	f.Fuzz(func(t *testing.T, data []byte) {
		sum := sha256.Sum256(data)
		resealed := append(append([]byte(nil), data...), sum[:]...)
		for _, file := range [][]byte{data, resealed} {
			p, err := decode(file, k)
			if err != nil {
				continue
			}
			off, adj := p.G.CSR()
			if _, err := graph.FromCSR(p.G.Name(), p.G.N(), off, adj); err != nil {
				t.Fatalf("decoded CSR fails FromCSR: %v", err)
			}
			if !bytes.Equal(encode(k, p), file) {
				t.Fatal("decoded product re-encodes to different bytes")
			}
		}
	})
}
