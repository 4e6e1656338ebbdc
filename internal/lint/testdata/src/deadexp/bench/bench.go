// Package bench stands in for a caller-only module: its calls count, and
// its own exports are not checked.
package bench

import "radionet/internal/lint/testdata/src/deadexp"

// Unchecked is exported and never called, but bench is a callers-only load.
func Unchecked() { deadexp.BenchOnly() }
