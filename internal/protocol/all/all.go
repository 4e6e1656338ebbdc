// Package all links every algorithm package into the protocol registry.
// Importing it (blank) is how an executable or library layer opts into
// the full algorithm catalogue; adding a new algorithm package means
// adding exactly one import line here — no dispatch code changes.
package all

import (
	_ "radionet/internal/baseline"
	_ "radionet/internal/cluster"
	_ "radionet/internal/compete"
	_ "radionet/internal/decay"
	_ "radionet/internal/ghle"
)
