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

	"radionet/internal/protocol"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata golden hashes from the current code")

// goldenCases are the campaigns whose JSONL sink bytes are pinned to a
// committed sha256, each in its own testdata file.
//
// cd17 is a small campaign over both tasks on a long grid (D polynomial
// in n) and a unit-disk graph: enough rounds through every Compete lane
// that a change to any transmitter set, message or RNG draw moves at
// least one summary field.
//
// pernode covers the engine's other users on the same topologies:
// bgi (decay's Protocol, with a range Act) and distributed MPX
// partitioning (a Protocol without one). The name is historical: MPX
// once ran through the per-node adapter.
//
// others covers the remaining registry algorithms on the same topologies:
// the Decay variants behind truncated-decay and hw16's pipeline, and the
// three baseline leader elections.
var goldenCases = []struct {
	name  string
	file  string
	algos []AlgoSpec
}{
	{"cd17", "cd17_golden.sha256", []AlgoSpec{
		{Task: Broadcast, Algo: "cd17"},
		{Task: Leader, Algo: "cd17"},
	}},
	{"pernode", "pernode_golden.sha256", []AlgoSpec{
		{Task: Broadcast, Algo: "bgi"},
		{Task: protocol.Partition, Algo: "mpx"},
	}},
	{"others", "others_golden.sha256", []AlgoSpec{
		{Task: Broadcast, Algo: "truncated-decay"},
		{Task: Broadcast, Algo: "hw16"},
		{Task: Leader, Algo: "binary-search"},
		{Task: Leader, Algo: "max-broadcast"},
		{Task: Leader, Algo: "gh13"},
	}},
}

// TestCD17GoldenCampaign pins each golden campaign's JSONL sink bytes to
// its committed sha256, so a change meant to be output-neutral (a faster
// Act, a new data layout, a leaner engine) cannot alter results
// unnoticed. Regenerate only for a deliberate output change:
//
//	go test ./internal/campaign -run TestCD17GoldenCampaign -update
func TestCD17GoldenCampaign(t *testing.T) {
	if testing.Short() {
		t.Skip("runs full protocol trials")
	}
	for _, gc := range goldenCases {
		t.Run(gc.name, func(t *testing.T) {
			m := Matrix{
				Topologies: []string{"grid:8x40", "geometric:400:0.1"},
				Algorithms: gc.algos,
				Seeds:      3,
				MasterSeed: 1,
			}
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
			path := filepath.Join("testdata", gc.file)
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
				t.Fatalf("%s campaign JSONL sha256 = %s, want %s\n%s", gc.name, got, want, buf.String())
			}
		})
	}
}
