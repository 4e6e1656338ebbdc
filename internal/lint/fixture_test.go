// The fixture harness: it runs the lint checks over fixture packages under
// internal/lint/testdata/src and checks their findings against // want
// comments, in the style of x/tools' analysistest.
//
// A fixture is an ordinary compilable package; go list's wildcards skip
// testdata directories, so fixtures never reach go build, go test or go
// vet — only this harness (which names their directories explicitly)
// loads them.
//
// Expectation syntax, as trailing comments in fixture files:
//
//	foo() // want "regexp" "second regexp"
//
// expects exactly one diagnostic per quoted regexp on that line. When the
// expected diagnostic sits on a line that cannot carry a trailing comment
// (a //lint: annotation line — a trailing // would be swallowed into the
// annotation's reason), use the offset form on the line above:
//
//	// want:+1 "needs a reason"
//	//lint:ordered

package lint_test

import (
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"sync"
	"testing"

	"radionet/internal/lint"
)

// moduleRoot locates the module directory once; fixtures are addressed
// relative to it so tests work from any package directory.
var moduleRoot = sync.OnceValues(func() (string, error) {
	out, err := exec.Command("go", "list", "-m", "-f", "{{.Dir}}").Output()
	if err != nil {
		return "", fmt.Errorf("locating module root: %v", err)
	}
	return strings.TrimSpace(string(out)), nil
})

// wantRE matches one expectation comment: an optional line offset
// followed by quoted regexps.
var wantRE = regexp.MustCompile(`//\s*want(?::\+(\d+))?((?:\s+"(?:[^"]*)")+)\s*$`)

var quotedRE = regexp.MustCompile(`"([^"]*)"`)

// expectation is one unmatched // want entry.
type expectation struct {
	file string // base name
	line int
	re   *regexp.Regexp
}

// runAnalyzer loads testdata/src/<fixture>, runs the analyzer over it
// (bypassing its package Scope — fixtures live outside the real package
// tree on purpose) and checks the findings against the fixture's // want
// comments.
func runAnalyzer(t *testing.T, a *lint.Analyzer, fixture string) {
	t.Helper()
	res := loadFixture(t, fixture)
	unscoped := *a
	unscoped.Scope = nil
	checkWants(t, res, lint.RunAnalyzers(res, []*lint.Analyzer{&unscoped}))
}

// loadFixture loads the fixture packages testdata/src/<dir> for each dir.
func loadFixture(t *testing.T, dirs ...string) *lint.Result {
	t.Helper()
	root, err := moduleRoot()
	if err != nil {
		t.Fatal(err)
	}
	patterns := make([]string, len(dirs))
	for i, d := range dirs {
		patterns[i] = "./internal/lint/testdata/src/" + d
	}
	res, err := lint.Load(root, patterns...)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// checkWants reports any mismatch between diags and the // want comments
// of res's files.
func checkWants(t *testing.T, res *lint.Result, diags []lint.Diagnostic) {
	t.Helper()
	var wants []expectation
	for _, pkg := range res.Pkgs {
		for _, name := range pkg.GoFiles {
			w, err := parseWants(name)
			if err != nil {
				t.Fatal(err)
			}
			wants = append(wants, w...)
		}
	}

	// Greedy bipartite match: every diagnostic consumes exactly one
	// expectation on its line; leftovers on either side fail the test.
	used := make([]bool, len(wants))
	for _, d := range diags {
		matched := false
		for i, w := range wants {
			if used[i] || w.file != filepath.Base(d.Pos.Filename) || w.line != d.Pos.Line {
				continue
			}
			if w.re.MatchString(d.Message) {
				used[i] = true
				matched = true
				break
			}
		}
		if !matched {
			t.Errorf("unexpected diagnostic: %s", d)
		}
	}
	for i, w := range wants {
		if !used[i] {
			t.Errorf("%s:%d: expected diagnostic matching %q, got none", w.file, w.line, w.re)
		}
	}
}

// parseWants extracts the expectations from one fixture file.
func parseWants(filename string) ([]expectation, error) {
	data, err := os.ReadFile(filename)
	if err != nil {
		return nil, err
	}
	base := filepath.Base(filename)
	var wants []expectation
	for i, line := range strings.Split(string(data), "\n") {
		m := wantRE.FindStringSubmatch(line)
		if m == nil {
			continue
		}
		lineNo := i + 1
		if m[1] != "" {
			off, err := strconv.Atoi(m[1])
			if err != nil {
				return nil, fmt.Errorf("%s:%d: bad want offset: %v", base, lineNo, err)
			}
			lineNo += off
		}
		for _, q := range quotedRE.FindAllStringSubmatch(m[2], -1) {
			re, err := regexp.Compile(q[1])
			if err != nil {
				return nil, fmt.Errorf("%s:%d: bad want regexp %q: %v", base, lineNo, q[1], err)
			}
			wants = append(wants, expectation{file: base, line: lineNo, re: re})
		}
	}
	return wants, nil
}
