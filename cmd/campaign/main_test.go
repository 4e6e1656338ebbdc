package main

import (
	"bytes"
	"strings"
	"testing"
)

// TestBadTopologySizes checks that a topology size outside its
// generator's preconditions, or an unknown family, fails the command with
// one exact stderr line, prefixed once, before anything is printed.
// grid:0x5 used to panic and gnp:0:0.1 to print a table of empty graphs
// and exit 0. A valid spec still prints its table.
func TestBadTopologySizes(t *testing.T) {
	for _, c := range []struct{ topos, line string }{
		{"grid:0x5", `campaign: topology "grid:0x5": want both dimensions >= 1, got 0x5`},
		{"gnp:0:0.1", `campaign: topology "gnp:0:0.1": want N >= 1, got 0`},
		{"warp:9", `campaign: topology "warp:9": unknown family (known: path cycle star complete hypercube randtree grid cliquepath caterpillar tree dumbbell regular geometric gnp)`},
	} {
		var out bytes.Buffer
		err := run([]string{"-topos", c.topos, "-algos", "cd17", "-seeds", "1"}, &out)
		switch {
		case err == nil:
			t.Errorf("-topos %s: no error, output %q", c.topos, out.String())
		case errLine(err) != c.line:
			t.Errorf("-topos %s: stderr line %q, want %q", c.topos, errLine(err), c.line)
		case out.Len() != 0:
			t.Errorf("-topos %s: printed %q before failing", c.topos, out.String())
		}
	}
	if got, want := errLine(run([]string{"-preset", "faults", "-config", "m.json"}, new(bytes.Buffer))),
		"campaign: -preset and -config are mutually exclusive"; got != want {
		t.Errorf("unprefixed error: stderr line %q, want %q", got, want)
	}
	var out bytes.Buffer
	if err := run([]string{"-topos", "grid:2x3", "-algos", "cd17", "-seeds", "1"}, &out); err != nil {
		t.Fatalf("-topos grid:2x3: %v", err)
	}
	if !strings.Contains(out.String(), "grid:2x3  6 ") {
		t.Errorf("-topos grid:2x3: no 6-node row in %q", out.String())
	}
}
