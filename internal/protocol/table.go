package protocol

import (
	"fmt"
	"strings"
)

// capString renders a descriptor's capabilities for the table:
// "scratch" when it has a NewScratch hook.
func capString(d *Descriptor) string {
	if d.NewScratch != nil {
		return "scratch"
	}
	return "—"
}

// MarkdownTable renders the algorithm registry as the markdown shared by
// `cmd/radiosim -list`, `cmd/campaign -list` and the README (CI pins all
// three to byte equality; regenerate the README block from either CLI
// when the registry changes).
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
				task, d.Name, aliases, capString(d), d.BudgetDoc, d.Summary)
		}
	}
	return b.String()
}
