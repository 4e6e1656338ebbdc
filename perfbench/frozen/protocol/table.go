package protocol

import (
	"fmt"
	"strings"

	"radionet/perfbench/frozen/radio"
)

// capString renders a descriptor's capability flags for the table.
func capString(c Caps) string {
	var parts []string
	if c.Faults {
		parts = append(parts, "faults")
	}
	if c.CollisionDetection {
		parts = append(parts, "collision-detection")
	}
	if c.Scratch {
		parts = append(parts, "scratch")
	}
	if c.Bulk {
		parts = append(parts, "bulk")
	}
	if c.Transport {
		parts = append(parts, "transport")
	}
	if len(parts) == 0 {
		return "—"
	}
	return strings.Join(parts, ", ")
}

// MarkdownTable renders the full registry — the algorithm table plus the
// transport-backend table — as the markdown shared by
// `cmd/radiosim -list`, `cmd/campaign -list` and the README (CI pins all
// three to byte equality; regenerate the README block from either CLI
// when either registry changes).
func MarkdownTable() string {
	var b strings.Builder
	b.WriteString("| task | algorithm | aliases | capabilities | default budget | description |\n")
	b.WriteString("|---|---|---|---|---|---|\n")
	for _, task := range Tasks() {
		for _, d := range ByTask(task) {
			aliases := "—"
			if len(d.Aliases) > 0 {
				aliases = strings.Join(d.Aliases, ", ")
			}
			fmt.Fprintf(&b, "| %s | `%s` | %s | %s | %s | %s |\n",
				task, d.Name, aliases, capString(d.Caps), d.BudgetDoc, d.Summary)
		}
	}
	if ts := radio.Transports(); len(ts) > 0 {
		b.WriteString("\n| transport | description |\n")
		b.WriteString("|---|---|\n")
		for _, t := range ts {
			fmt.Fprintf(&b, "| `%s` | %s |\n", t.Name, t.Summary)
		}
	}
	return b.String()
}
