package protocol

import (
	"strings"
	"testing"
)

// snapshotRegistry saves the live registry and restores it on cleanup, so
// tests can register scratch descriptors without polluting the process.
func snapshotRegistry(t *testing.T) {
	t.Helper()
	regMu.Lock()
	savedNames := byName
	savedAliases := byAlias
	byName = map[Task]map[string]*Descriptor{}
	byAlias = map[Task]map[string]string{}
	for task, m := range savedNames {
		byName[task] = map[string]*Descriptor{}
		for n, d := range m {
			byName[task][n] = d
		}
	}
	for task, m := range savedAliases {
		byAlias[task] = map[string]string{}
		for a, n := range m {
			byAlias[task][a] = n
		}
	}
	regMu.Unlock()
	t.Cleanup(func() {
		regMu.Lock()
		byName = savedNames
		byAlias = savedAliases
		regMu.Unlock()
	})
}

func dummy(task Task, name string, aliases ...string) Descriptor {
	return Descriptor{
		Task:    task,
		Name:    name,
		Aliases: aliases,
		Build:   func(BuildParams) (Runner, error) { return nil, nil },
	}
}

func TestRegisterLookupAliases(t *testing.T) {
	snapshotRegistry(t)
	const task = Task("test-task")
	Register(dummy(task, "alpha", "a", "al"))
	Register(dummy(task, "beta"))

	for _, name := range []string{"alpha", "a", "al"} {
		d, ok := Lookup(task, name)
		if !ok || d.Name != "alpha" {
			t.Fatalf("Lookup(%q) = %v, %v", name, d, ok)
		}
	}
	if _, ok := Lookup(task, "gamma"); ok {
		t.Fatal("unknown name resolved")
	}
	if _, ok := Lookup(Task("no-such-task"), "alpha"); ok {
		t.Fatal("unknown task resolved")
	}
	if !KnownTask(task) || KnownTask(Task("no-such-task")) {
		t.Fatal("KnownTask wrong")
	}
	if got := KnownList(task); got != "alpha beta" {
		t.Fatalf("KnownList = %q", got)
	}
}

func TestRegisterRejectsDuplicatesAndInvalid(t *testing.T) {
	snapshotRegistry(t)
	const task = Task("test-task")
	Register(dummy(task, "alpha", "a"))

	mustPanic := func(name string, d Descriptor) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Fatalf("%s: Register did not panic", name)
			}
		}()
		Register(d)
	}
	mustPanic("dup name", dummy(task, "alpha"))
	mustPanic("dup alias", dummy(task, "a"))
	mustPanic("self-shadowing alias", dummy(task, "gamma", "gamma"))
	mustPanic("repeated alias", dummy(task, "delta", "dd", "dd"))
	mustPanic("alias collides with name", dummy(task, "beta", "alpha"))
	mustPanic("no build", Descriptor{Task: task, Name: "nobuild"})
	mustPanic("no name", Descriptor{Task: task, Build: func(BuildParams) (Runner, error) { return nil, nil }})
}

func TestByTaskOrdering(t *testing.T) {
	snapshotRegistry(t)
	const task = Task("test-task")
	d1 := dummy(task, "zeta")
	d1.Order = 10
	d2 := dummy(task, "eta")
	d2.Order = 20
	d3 := dummy(task, "theta")
	d3.Order = 10
	Register(d1)
	Register(d2)
	Register(d3)
	got := Names(task)
	want := "theta zeta eta" // order 10 ties break by name, then order 20
	if strings.Join(got, " ") != want {
		t.Fatalf("Names = %v, want %s", got, want)
	}
}

func TestMarkdownTableShape(t *testing.T) {
	snapshotRegistry(t)
	const task = Task("test-task")
	Register(dummy(task, "alpha", "a"))
	out := MarkdownTable()
	if !strings.HasPrefix(out, "| task | algorithm |") {
		t.Fatalf("missing header:\n%s", out)
	}
	if !strings.Contains(out, "| test-task | `alpha` | a |") {
		t.Fatalf("missing row:\n%s", out)
	}
}
