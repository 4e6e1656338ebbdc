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

// TestBadCounts checks that a negative -workers or -shards fails the
// command with one exact stderr line before anything is printed, where
// both used to print the table and exit 0. Zero still means GOMAXPROCS
// workers and automatic shards.
func TestBadCounts(t *testing.T) {
	base := []string{"-topos", "grid:4x4", "-algos", "cd17", "-seeds", "1"}
	for _, c := range []struct {
		flag, value, line string
	}{
		{"-workers", "-1", "campaign: -workers must be >= 0, got -1"},
		{"-shards", "-2", "campaign: -shards must be >= 0, got -2"},
	} {
		var out bytes.Buffer
		err := run(append(base, c.flag, c.value), &out)
		switch {
		case err == nil:
			t.Errorf("%s %s: no error, output %q", c.flag, c.value, out.String())
		case errLine(err) != c.line:
			t.Errorf("%s %s: stderr line %q, want %q", c.flag, c.value, errLine(err), c.line)
		case out.Len() != 0:
			t.Errorf("%s %s: printed %q before failing", c.flag, c.value, out.String())
		}
	}
	var out bytes.Buffer
	if err := run(append(base, "-workers", "0", "-shards", "0"), &out); err != nil || out.Len() == 0 {
		t.Errorf("-workers 0 -shards 0: err %v, output %q", err, out.String())
	}
}
