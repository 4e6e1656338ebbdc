package campaign

import (
	"bytes"
	"strings"
	"testing"
)

// TestSinkSchemaStableUnderMixedSummaries checks that the column set is
// fixed by the campaign-level Schema: a stream mixing timed and untimed
// summaries, with and without a reach distribution, never yields rows
// wider than the header (the old first-summary inference did exactly
// that).
func TestSinkSchemaStableUnderMixedSummaries(t *testing.T) {
	d := Dist{Mean: 1, Std: 0, P50: 1, P90: 1, P99: 1, Max: 1}
	untimed := ConfigSummary{Topology: "path:4", N: 4, D: 3, Task: "broadcast", Algo: "bgi", Trials: 1, Rounds: d, Tx: d}
	timed := untimed
	timed.WallMS = &d
	reached := untimed
	reached.Reach = &d

	for _, sch := range []Schema{{}, {Timed: true}, {Faults: true}, {Timed: true, Faults: true}} {
		wantCols := len(schemaColumns(sch))
		var csvBuf, txtBuf bytes.Buffer
		cs, _ := NewSink("csv", &csvBuf, sch)
		ts, _ := NewSink("text", &txtBuf, sch)
		for _, s := range []ConfigSummary{untimed, timed, reached} {
			if err := cs.Emit(s); err != nil {
				t.Fatal(err)
			}
			if err := ts.Emit(s); err != nil {
				t.Fatal(err)
			}
		}
		if err := cs.Close(); err != nil {
			t.Fatal(err)
		}
		if err := ts.Close(); err != nil {
			t.Fatal(err)
		}
		lines := strings.Split(strings.TrimRight(csvBuf.String(), "\n"), "\n")
		if len(lines) != 4 {
			t.Fatalf("schema %+v: %d csv lines, want header + 3 rows", sch, len(lines))
		}
		for i, l := range lines {
			if got := len(strings.Split(l, ",")); got != wantCols {
				t.Errorf("schema %+v: csv line %d has %d columns, header has %d:\n%s", sch, i, got, wantCols, l)
			}
		}
		txtLines := strings.Split(strings.TrimRight(txtBuf.String(), "\n"), "\n")
		if len(txtLines) != 5 { // header, rule, 3 rows
			t.Fatalf("schema %+v: %d text lines, want 5", sch, len(txtLines))
		}
	}
}
