package protocol

import (
	"fmt"
	"sort"
	"strings"
	"sync"
)

// The registry is populated by package init functions (each algorithm
// package registers its descriptors in a register.go) and read-only
// afterwards; the mutex exists for the registration phase and for tests.
var (
	regMu   sync.RWMutex
	byName  = map[Task]map[string]*Descriptor{} // canonical name -> descriptor
	byAlias = map[Task]map[string]string{}      // alias -> canonical name
)

// Register adds a descriptor to the registry. It panics on invalid or
// duplicate registrations — registration happens at init time, and a
// broken registry is a programming error, not a runtime condition.
func Register(d Descriptor) {
	if d.Task == "" || d.Name == "" {
		panic("protocol: Register needs Task and Name")
	}
	if d.Build == nil {
		panic(fmt.Sprintf("protocol: %s:%s registered without Build", d.Task, d.Name))
	}
	if d.Caps.Scratch != (d.NewScratch != nil) {
		panic(fmt.Sprintf("protocol: %s:%s Caps.Scratch disagrees with NewScratch", d.Task, d.Name))
	}
	if d.ScratchKey != "" && d.NewScratch == nil {
		panic(fmt.Sprintf("protocol: %s:%s declares a ScratchKey without NewScratch", d.Task, d.Name))
	}
	regMu.Lock()
	defer regMu.Unlock()
	if byName[d.Task] == nil {
		byName[d.Task] = map[string]*Descriptor{}
		byAlias[d.Task] = map[string]string{}
	}
	names := append([]string{d.Name}, d.Aliases...)
	seen := make(map[string]bool, len(names))
	for _, n := range names {
		if _, dup := byName[d.Task][n]; dup {
			panic(fmt.Sprintf("protocol: duplicate registration %s:%s", d.Task, n))
		}
		if _, dup := byAlias[d.Task][n]; dup {
			panic(fmt.Sprintf("protocol: duplicate registration %s:%s", d.Task, n))
		}
		// Also catch duplicates within this one descriptor (an alias
		// repeating another alias or shadowing its own name).
		if seen[n] {
			panic(fmt.Sprintf("protocol: duplicate registration %s:%s", d.Task, n))
		}
		seen[n] = true
	}
	cp := d
	byName[d.Task][d.Name] = &cp
	for _, a := range d.Aliases {
		byAlias[d.Task][a] = d.Name
	}
}

// Lookup resolves (task, name) — name may be a canonical name or an alias
// — to its descriptor.
func Lookup(task Task, name string) (*Descriptor, bool) {
	regMu.RLock()
	defer regMu.RUnlock()
	m := byName[task]
	if m == nil {
		return nil, false
	}
	if d, ok := m[name]; ok {
		return d, true
	}
	if canon, ok := byAlias[task][name]; ok {
		return m[canon], true
	}
	return nil, false
}

// KnownTask reports whether any descriptor is registered under task.
func KnownTask(task Task) bool {
	regMu.RLock()
	defer regMu.RUnlock()
	return len(byName[task]) > 0
}

// Tasks returns every task with at least one registered descriptor, in
// stable order: the built-in tasks first (broadcast, leader, multicast,
// partition), then any others alphabetically.
func Tasks() []Task {
	regMu.RLock()
	defer regMu.RUnlock()
	builtin := []Task{Broadcast, Leader, Multicast, Partition}
	seen := map[Task]bool{}
	var out []Task
	for _, t := range builtin {
		if len(byName[t]) > 0 {
			out = append(out, t)
			seen[t] = true
		}
	}
	var rest []Task
	for t := range byName {
		if !seen[t] && len(byName[t]) > 0 {
			rest = append(rest, t)
		}
	}
	sort.Slice(rest, func(i, j int) bool { return rest[i] < rest[j] })
	return append(out, rest...)
}

// ByTask returns the task's descriptors sorted by (Order, Name).
func ByTask(task Task) []*Descriptor {
	regMu.RLock()
	defer regMu.RUnlock()
	out := make([]*Descriptor, 0, len(byName[task]))
	for _, d := range byName[task] {
		out = append(out, d)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Order != out[j].Order {
			return out[i].Order < out[j].Order
		}
		return out[i].Name < out[j].Name
	})
	return out
}

// Names returns the task's canonical descriptor names sorted as ByTask.
func Names(task Task) []string {
	ds := ByTask(task)
	out := make([]string, len(ds))
	for i, d := range ds {
		out[i] = d.Name
	}
	return out
}

// KnownList renders the task's names for error messages ("cd17 hw16 ...").
func KnownList(task Task) string { return strings.Join(Names(task), " ") }
