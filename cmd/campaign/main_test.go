package main

import (
	"bytes"
	"strings"
	"testing"
)

// TestBadTopologySizes checks that a topology size outside its
// generator's preconditions fails the command with a one-line error
// before anything is printed, where it used to panic (grid:0x5) or print
// a table of empty graphs and exit 0 (gnp:0:0.1). A valid spec still
// prints its table.
func TestBadTopologySizes(t *testing.T) {
	for _, topos := range []string{"grid:0x5", "gnp:0:0.1"} {
		var out bytes.Buffer
		err := run([]string{"-topos", topos, "-algos", "cd17", "-seeds", "1"}, &out)
		switch {
		case err == nil:
			t.Errorf("-topos %s: no error, output %q", topos, out.String())
		case strings.Contains(err.Error(), "\n"):
			t.Errorf("-topos %s: error spans lines: %q", topos, err)
		case out.Len() != 0:
			t.Errorf("-topos %s: printed %q before failing", topos, out.String())
		}
	}
	var out bytes.Buffer
	if err := run([]string{"-topos", "grid:2x3", "-algos", "cd17", "-seeds", "1"}, &out); err != nil {
		t.Fatalf("-topos grid:2x3: %v", err)
	}
	if !strings.Contains(out.String(), "grid:2x3  6 ") {
		t.Errorf("-topos grid:2x3: no 6-node row in %q", out.String())
	}
}
