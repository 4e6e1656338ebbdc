package campaign

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata golden hashes from the current code")

// goldenCD17Matrix is a small cd17 campaign over both tasks on a long
// grid (D polynomial in n) and a unit-disk graph: enough rounds through
// every Compete lane that a change to any transmitter set, message or RNG
// draw moves at least one summary field.
func goldenCD17Matrix() Matrix {
	return Matrix{
		Topologies: []string{"grid:8x40", "geometric:400:0.1"},
		Algorithms: []AlgoSpec{
			{Task: Broadcast, Algo: "cd17"},
			{Task: Leader, Algo: "cd17"},
		},
		Seeds:      3,
		MasterSeed: 1,
	}
}

// TestCD17GoldenCampaign pins the cd17 campaign's JSONL sink bytes to a
// committed sha256, so a change meant to be output-neutral (a faster
// Act, a new data layout) cannot alter results unnoticed. Regenerate only
// for a deliberate output change:
//
//	go test ./internal/campaign -run TestCD17GoldenCampaign -update
func TestCD17GoldenCampaign(t *testing.T) {
	if testing.Short() {
		t.Skip("runs full protocol trials")
	}
	m := goldenCD17Matrix()
	var buf bytes.Buffer
	s, err := NewSink("jsonl", &buf, m.SinkSchema(false))
	if err != nil {
		t.Fatal(err)
	}
	c := Campaign{Matrix: m, Workers: 2}
	if _, err := c.Run(s); err != nil {
		t.Fatal(err)
	}
	sum := sha256.Sum256(buf.Bytes())
	got := hex.EncodeToString(sum[:])
	path := filepath.Join("testdata", "cd17_golden.sha256")
	if *updateGolden {
		if err := os.WriteFile(path, []byte(got+"\n"), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if want := strings.TrimSpace(string(raw)); got != want {
		t.Fatalf("cd17 campaign JSONL sha256 = %s, want %s\n%s", got, want, buf.String())
	}
}
