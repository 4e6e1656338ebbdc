package main

import (
	"bytes"
	"strings"
	"testing"
)

// TestBadSeeds checks that a negative -seeds or -workers fails with a
// one-line error and prints nothing, where -seeds used to run the default
// count and -workers the tables.
func TestBadSeeds(t *testing.T) {
	for _, args := range [][]string{
		{"-run", "T1", "-quick", "-seeds", "-3"},
		{"-run", "T1", "-seeds", "-1"},
		{"-run", "T1", "-quick", "-workers", "-1"},
	} {
		var out bytes.Buffer
		err := run(args, &out)
		switch {
		case err == nil:
			t.Errorf("%v: no error, output %q", args, out.String())
		case strings.Contains(err.Error(), "\n"):
			t.Errorf("%v: error spans lines: %q", args, err)
		case out.Len() != 0:
			t.Errorf("%v: printed %q before failing", args, out.String())
		}
	}
}
