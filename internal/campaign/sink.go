package campaign

import (
	"encoding/json"
	"fmt"
	"io"
	"strconv"
	"strings"
)

// Sink consumes per-configuration summaries as the campaign streams them
// (in deterministic configuration order). Close flushes any buffered
// output; a sink is single-use.
type Sink interface {
	Emit(s ConfigSummary) error
	Close() error
}

// Schema fixes a tabular sink's column set for a whole campaign, up
// front. It used to be inferred from the first emitted summary, which made
// mixed streams (timed and untimed, with and without reach) produce rows
// wider than the header and silently misaligned tables — the column set is
// a campaign-level decision, not a per-row one. A summary missing an
// enabled column's value renders an empty cell; a summary carrying a value
// the schema excludes has it dropped.
type Schema struct {
	// Timed includes the wall-time columns (Campaign.Timings).
	Timed bool
	// Faults includes the reach columns (Matrix.Faults non-empty).
	Faults bool
}

// SinkSchema returns the Schema matching this matrix and timing choice.
func (m Matrix) SinkSchema(timed bool) Schema {
	return Schema{Timed: timed, Faults: len(m.Faults) > 0}
}

// NewSink returns the sink named by format: "text", "csv" or "jsonl".
// sch fixes the tabular column set (jsonl ignores it: each line carries
// its own fields).
func NewSink(format string, w io.Writer, sch Schema) (Sink, error) {
	switch format {
	case "text":
		return &textSink{w: w, sch: sch, cols: schemaColumns(sch)}, nil
	case "csv":
		return &csvSink{w: w, sch: sch}, nil
	case "jsonl":
		return &jsonlSink{w: w}, nil
	default:
		return nil, fmt.Errorf("campaign: unknown sink format %q (known: text csv jsonl)", format)
	}
}

// num renders a float compactly and deterministically.
func num(f float64) string { return strconv.FormatFloat(f, 'g', 6, 64) }

// row flattens a summary into the schema's column values.
func (s ConfigSummary) row(sch Schema) []string {
	r := []string{
		s.Topology, strconv.Itoa(s.N), strconv.Itoa(s.D), s.Task, s.Algo,
		strconv.Itoa(s.Trials), strconv.Itoa(s.Failures),
		num(s.Rounds.Mean), num(s.Rounds.Std), num(s.Rounds.P50),
		num(s.Rounds.P90), num(s.Rounds.P99), num(s.Rounds.Max),
		num(s.Tx.Mean),
	}
	if sch.Faults {
		if s.Reach != nil {
			r = append(r, num(s.Reach.Mean), num(s.Reach.P50))
		} else {
			r = append(r, "", "")
		}
	}
	if sch.Timed {
		if s.WallMS != nil {
			r = append(r, num(s.WallMS.Mean), num(s.WallMS.P99))
		} else {
			r = append(r, "", "")
		}
	}
	return r
}

func schemaColumns(sch Schema) []string {
	c := []string{
		"topology", "n", "D", "task", "algo", "trials", "fail",
		"rounds.mean", "rounds.std", "rounds.p50", "rounds.p90",
		"rounds.p99", "rounds.max", "tx.mean",
	}
	if sch.Faults {
		c = append(c, "reach.mean", "reach.p50")
	}
	if sch.Timed {
		c = append(c, "ms.mean", "ms.p99")
	}
	return c
}

// textSink buffers all rows and writes an aligned table on Close.
type textSink struct {
	w    io.Writer
	sch  Schema
	cols []string
	rows [][]string
}

func (t *textSink) Emit(s ConfigSummary) error {
	t.rows = append(t.rows, s.row(t.sch))
	return nil
}

func (t *textSink) Close() error {
	if len(t.rows) == 0 {
		return nil
	}
	widths := make([]int, len(t.cols))
	for i, c := range t.cols {
		widths[i] = len(c)
	}
	for _, r := range t.rows {
		for i, v := range r {
			if i < len(widths) && len(v) > widths[i] {
				widths[i] = len(v)
			}
		}
	}
	var b strings.Builder
	for i, c := range t.cols {
		fmt.Fprintf(&b, "%-*s  ", widths[i], c)
	}
	b.WriteByte('\n')
	for i := range t.cols {
		b.WriteString(strings.Repeat("-", widths[i]))
		b.WriteString("  ")
	}
	b.WriteByte('\n')
	for _, r := range t.rows {
		for i, v := range r {
			fmt.Fprintf(&b, "%-*s  ", widths[i], v)
		}
		b.WriteByte('\n')
	}
	_, err := io.WriteString(t.w, b.String())
	return err
}

// csvSink writes a header before the first row, then streams.
type csvSink struct {
	w     io.Writer
	sch   Schema
	wrote bool
}

func (c *csvSink) Emit(s ConfigSummary) error {
	if !c.wrote {
		c.wrote = true
		if _, err := io.WriteString(c.w, strings.Join(schemaColumns(c.sch), ",")+"\n"); err != nil {
			return err
		}
	}
	_, err := io.WriteString(c.w, strings.Join(s.row(c.sch), ",")+"\n")
	return err
}

func (c *csvSink) Close() error { return nil }

// jsonlSink streams one JSON object per configuration.
type jsonlSink struct {
	w io.Writer
}

func (j *jsonlSink) Emit(s ConfigSummary) error {
	b, err := json.Marshal(s)
	if err != nil {
		return err
	}
	b = append(b, '\n')
	_, err = j.w.Write(b)
	return err
}

func (j *jsonlSink) Close() error { return nil }
