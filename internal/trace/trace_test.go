package trace

import (
	"bytes"
	"strings"
	"testing"

	"radionet/internal/decay"
	"radionet/internal/graph"
	"radionet/internal/radio"
)

func record(t *testing.T) *Recorder {
	t.Helper()
	g := graph.Grid(5, 8)
	bc := decay.NewBroadcast(g, g.DiameterEstimate(), decay.Config{}, 3, map[int]int64{0: 9})
	rec := &Recorder{}
	bc.Engine.Hook = radio.ChainHooks(bc.Engine.Hook, rec.HookFunc())
	if !bc.Run(1 << 20).Done {
		t.Fatal("broadcast incomplete")
	}
	return rec
}

func TestRecorderCountsMatchMetrics(t *testing.T) {
	g := graph.Grid(5, 8)
	bc := decay.NewBroadcast(g, g.DiameterEstimate(), decay.Config{}, 3, map[int]int64{0: 9})
	rec := &Recorder{}
	bc.Engine.Hook = radio.ChainHooks(bc.Engine.Hook, rec.HookFunc())
	bc.Run(1 << 20)
	tx, del, col := rec.Totals()
	m := bc.Engine.Metrics
	if tx != m.Transmissions || del != m.Deliveries || col != m.Collisions {
		t.Fatalf("recorder (%d,%d,%d) != metrics (%d,%d,%d)",
			tx, del, col, m.Transmissions, m.Deliveries, m.Collisions)
	}
	if int64(rec.Rounds()) != m.Rounds {
		t.Fatalf("rounds %d != %d", rec.Rounds(), m.Rounds)
	}
}

func TestBusiest(t *testing.T) {
	rec := record(t)
	top := rec.Busiest(3)
	if len(top) == 0 {
		t.Fatal("no busiest nodes")
	}
	for i := 1; i < len(top); i++ {
		if top[i].Tx > top[i-1].Tx {
			t.Fatal("busiest not sorted")
		}
	}
	// Asking for more than exist is fine.
	all := rec.Busiest(1 << 20)
	if len(all) != len(rec.PerNode) {
		t.Fatalf("Busiest(max) returned %d of %d", len(all), len(rec.PerNode))
	}
}

func TestTimeline(t *testing.T) {
	rec := record(t)
	line := rec.Timeline(40)
	if len(line) != 40 {
		t.Fatalf("timeline width %d, want 40", len(line))
	}
	if strings.TrimSpace(line) == "" {
		t.Fatal("timeline is blank despite traffic")
	}
	if rec.Timeline(0) != "" {
		t.Fatal("zero-width timeline should be empty")
	}
	if (&Recorder{}).Timeline(10) != "" {
		t.Fatal("empty recorder timeline should be empty")
	}
}

func TestReport(t *testing.T) {
	rec := record(t)
	var buf bytes.Buffer
	if err := rec.Report(&buf); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"rounds:", "transmissions:", "deliveries/tx:", "busiest nodes:"} {
		if !strings.Contains(buf.String(), want) {
			t.Fatalf("report missing %q:\n%s", want, buf.String())
		}
	}
}

func TestHookSliceNotRetained(t *testing.T) {
	// The engine reuses the transmitters slice; the recorder must not
	// alias it. Two beacons guarantee a nonempty slice each round.
	g := graph.Path(3)
	e := radio.NewNodeEngine(g, []radio.Node{
		beacon{}, listener{}, beacon{},
	})
	rec := &Recorder{}
	e.Hook = radio.ChainHooks(e.Hook, rec.HookFunc())
	for i := 0; i < 10; i++ {
		e.Step()
	}
	if rec.PerNode[0] != 10 || rec.PerNode[2] != 10 {
		t.Fatalf("per-node counts %v", rec.PerNode)
	}
}

type beacon struct{}

func (beacon) Act(int64) radio.Action     { return radio.Transmit(radio.Message{A: 1}) }
func (beacon) Recv(int64, *radio.Message) {}

// listener is a listen-only node that ignores every reception.
type listener struct{}

func (listener) Act(int64) radio.Action     { return radio.Listen }
func (listener) Recv(int64, *radio.Message) {}

// TestDownsamplingExactTotals drives a recorder far past its sample cap
// and checks the memory bound plus the exactness contract: Rounds and
// Totals never lose a count, whatever the compaction history.
func TestDownsamplingExactTotals(t *testing.T) {
	rec := &Recorder{MaxSamples: 64}
	hook := rec.HookFunc()
	const rounds = 100_000
	var wantTx, wantDel, wantCol int64
	ids := []int32{1, 2, 3}
	for i := 0; i < rounds; i++ {
		tx := ids[:1+i%3]
		del := i % 2
		col := i % 5
		wantTx += int64(len(tx))
		wantDel += int64(del)
		wantCol += int64(col)
		hook(int64(i), tx, del, col)
	}
	if len(rec.Samples) > 64 {
		t.Fatalf("samples grew to %d, cap 64", len(rec.Samples))
	}
	if rec.Rounds() != rounds {
		t.Fatalf("rounds = %d, want %d", rec.Rounds(), rounds)
	}
	tx, del, col := rec.Totals()
	if tx != wantTx || del != wantDel || col != wantCol {
		t.Fatalf("totals (%d,%d,%d) != exact (%d,%d,%d)", tx, del, col, wantTx, wantDel, wantCol)
	}
	if rec.Scale() < rounds/64 {
		t.Fatalf("scale = %d, want >= %d", rec.Scale(), rounds/64)
	}
	// Downsampled per-node counts stay exact too (they're per-node, not
	// per-round), and the report still renders.
	if rec.PerNode[1] != rounds {
		t.Fatalf("PerNode[1] = %d, want %d", rec.PerNode[1], rounds)
	}
	line := rec.Timeline(40)
	if len(line) != 40 {
		t.Fatalf("timeline width %d, want 40", len(line))
	}
	var buf bytes.Buffer
	if err := rec.Report(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "rounds:        100000") {
		t.Fatalf("report rounds wrong:\n%s", buf.String())
	}
}

// TestDownsamplingOddCap exercises the odd-length compaction tail (the
// half-full bucket) across several doublings.
func TestDownsamplingOddCap(t *testing.T) {
	rec := &Recorder{MaxSamples: 7}
	hook := rec.HookFunc()
	const rounds = 1000
	for i := 0; i < rounds; i++ {
		hook(int64(i), []int32{0}, 1, 0)
	}
	if len(rec.Samples) > 7 {
		t.Fatalf("samples grew to %d, cap 7", len(rec.Samples))
	}
	if rec.Rounds() != rounds {
		t.Fatalf("rounds = %d, want %d", rec.Rounds(), rounds)
	}
	tx, del, _ := rec.Totals()
	if tx != rounds || del != rounds {
		t.Fatalf("totals (%d,%d) != (%d,%d)", tx, del, rounds, rounds)
	}
	// Every bucket's round coverage must sum to the exact round count.
	var covered int64
	for i := range rec.Samples {
		covered += rec.sampleRounds(i)
	}
	if covered != rounds {
		t.Fatalf("bucket coverage %d != rounds %d", covered, rounds)
	}
}
