// Package lint is the repository's machine-checked invariant suite: a
// small static-analysis framework (mirroring the golang.org/x/tools
// go/analysis shape on the standard library alone — go/ast, go/types and
// the gc export-data importer — so the module stays dependency-free) plus
// the five analyzers and the whole-module check that turn the repo's
// by-convention contracts into vet-time errors:
//
//	determinism    — simulation packages must be bit-exact functions of
//	                 their seeds: no wall clock, no math/crypto rand, no
//	                 environment reads, no map-iteration order reaching
//	                 output.
//	rngdiscipline  — randomness flows only through rng.Rand streams built
//	                 by rng.New/Fork from explicit seeds; never from
//	                 ambient state, never from the unusable zero value.
//	registerinit   — protocol.Register is called only from an init in a
//	                 register.go, and every registering package is
//	                 reachable from internal/protocol/all.
//	hookneutrality — radio.RoundHook implementations and everything in
//	                 internal/obs observe, never steer: no engine/campaign
//	                 mutation, no randomness, no non-atomic shared writes.
//	hotpath        — functions annotated //radionet:hotpath must not
//	                 allocate per round (make/new/closure/locally grown
//	                 append) or box values into interfaces.
//	deadexport     — (whole-module, CheckDeadExports) every exported
//	                 function or method has a non-test caller in the
//	                 module or in the perfbench module.
//
// Findings a human has vetted are suppressed in place with a
// //lint:<key> annotation carrying a mandatory reason, e.g.
//
//	//lint:ordered max-reduction over unique candidate IDs
//	for v, id := range cands { ... }
//
// The annotation suppresses the matching diagnostic on its own line and
// the line below; an annotation without a reason is itself a diagnostic.
// DESIGN.md §10 documents each contract and the suppression policy.
package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"regexp"
	"sort"
	"strings"
)

// Analyzer is one named invariant checker. It mirrors the x/tools
// analysis.Analyzer surface closely enough that migrating to the real
// framework (if the dependency ever lands) is mechanical.
type Analyzer struct {
	// Name identifies the analyzer in diagnostics and suppressions.
	Name string
	// Doc is the one-paragraph contract description shown by -list.
	Doc string
	// Scope restricts the analyzer to packages for which it returns true;
	// nil means every package. Fixture harnesses bypass Scope.
	Scope func(pkgPath string) bool
	// SkipTests excludes _test.go files (relevant under go vet, which
	// analyzes test variants; the standalone loader only sees non-test
	// files to begin with).
	SkipTests bool
	// Run performs the analysis on one package.
	Run func(*Pass)
}

// Diagnostic is one finding, positioned for file:line:col reporting.
type Diagnostic struct {
	Pos      token.Position
	Analyzer string
	Message  string
}

func (d Diagnostic) String() string {
	return fmt.Sprintf("%s: %s [%s]", d.Pos, d.Message, d.Analyzer)
}

// Pass carries one analyzer run over one type-checked package.
type Pass struct {
	Analyzer *Analyzer
	Fset     *token.FileSet
	Files    []*ast.File
	Pkg      *types.Package
	Info     *types.Info

	report func(Diagnostic)
	// suppressions per file line, scanned once per package by RunAnalyzers.
	suppr map[*ast.File]map[int]suppression
}

type suppression struct {
	key    string
	reason string
}

// suppressionRE matches a //lint:<key> annotation; the rest of the line
// is the mandatory reason.
var suppressionRE = regexp.MustCompile(`^//lint:([a-z]+)(.*)$`)

// Reportf records a diagnostic at pos unless a matching //lint:<key>
// suppression covers the line. key is the Analyzer's suppression key
// (one annotation key per analyzer keeps the policy greppable).
func (p *Pass) Reportf(key string, pos token.Pos, format string, args ...any) {
	if p.suppressed(pos, key) {
		return
	}
	p.report(Diagnostic{
		Pos:      p.Fset.Position(pos),
		Analyzer: p.Analyzer.Name,
		Message:  fmt.Sprintf(format, args...),
	})
}

// suppressed reports whether a //lint:key annotation covers pos: on the
// same line (trailing comment) or the line immediately above.
func (p *Pass) suppressed(pos token.Pos, key string) bool {
	file := p.fileOf(pos)
	if file == nil {
		return false
	}
	m := p.suppr[file]
	line := p.Fset.Position(pos).Line
	for _, l := range [2]int{line, line - 1} {
		if s, ok := m[l]; ok && s.key == key {
			return true
		}
	}
	return false
}

func (p *Pass) fileOf(pos token.Pos) *ast.File {
	for _, f := range p.Files {
		if f.FileStart <= pos && pos < f.FileEnd {
			return f
		}
	}
	return nil
}

// scanSuppressions indexes a file's //lint: annotations by line and
// reports malformed ones (unknown key, missing reason) — a suppression is
// a reviewed exception and must say why it exists. It runs once per file
// per package load (not per analyzer), under the framework's own "lint"
// diagnostic name, so malformed annotations surface even in files no
// analyzer otherwise flags.
func scanSuppressions(fset *token.FileSet, file *ast.File) (map[int]suppression, []Diagnostic) {
	m := map[int]suppression{}
	var diags []Diagnostic
	for _, cg := range file.Comments {
		for _, c := range cg.List {
			sub := suppressionRE.FindStringSubmatch(c.Text)
			if sub == nil {
				continue
			}
			key, reason := sub[1], strings.TrimSpace(sub[2])
			line := fset.Position(c.Pos()).Line
			if !knownSuppressionKeys[key] {
				diags = append(diags, Diagnostic{
					Pos:      fset.Position(c.Pos()),
					Analyzer: "lint",
					Message:  fmt.Sprintf("unknown suppression key %q (known: %s)", key, knownSuppressionList()),
				})
				continue
			}
			if reason == "" {
				diags = append(diags, Diagnostic{
					Pos:      fset.Position(c.Pos()),
					Analyzer: "lint",
					Message:  fmt.Sprintf("//lint:%s needs a reason (the annotation is a reviewed exception; say why)", key),
				})
				continue
			}
			m[line] = suppression{key: key, reason: reason}
		}
	}
	return m, diags
}

// knownSuppressionKeys enumerates the annotation vocabulary; one key per
// analyzer that supports suppression at all (registerinit does not — a
// misplaced Register call has no sanctioned variant).
var knownSuppressionKeys = map[string]bool{
	"ordered":   true, // determinism: map range proven order-independent
	"wallclock": true, // determinism: sanctioned telemetry wall-clock read
	"seedroot":  true, // rngdiscipline: sanctioned seed construction site
	"hookstate": true, // hookneutrality: sanctioned non-atomic hook state
	"alloc":     true, // hotpath: sanctioned (amortized) allocation
	"testonly":  true, // deadexport: exported test harness with no non-test caller
}

func knownSuppressionList() string {
	keys := make([]string, 0, len(knownSuppressionKeys))
	for k := range knownSuppressionKeys {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return strings.Join(keys, " ")
}

// RunAnalyzers applies each analyzer to each package (honoring Scope and
// SkipTests), validates the packages' //lint: annotations, and returns
// the findings sorted by position, analyzer and message, deduplicated.
func RunAnalyzers(res *Result, analyzers []*Analyzer) []Diagnostic {
	var diags []Diagnostic
	for _, pkg := range res.Pkgs {
		suppr := map[*ast.File]map[int]suppression{}
		for _, f := range pkg.Files {
			m, bad := scanSuppressions(res.Fset, f)
			suppr[f] = m
			diags = append(diags, bad...)
		}
		for _, a := range analyzers {
			if a.Scope != nil && !a.Scope(pkg.ImportPath) {
				continue
			}
			diags = append(diags, runOne(res.Fset, pkg, a, suppr)...)
		}
	}
	SortDiagnostics(diags)
	return dedup(diags)
}

// runOne applies one analyzer to one loaded package.
func runOne(fset *token.FileSet, pkg *Package, a *Analyzer, suppr map[*ast.File]map[int]suppression) []Diagnostic {
	files := pkg.Files
	if a.SkipTests {
		files = files[:0:0]
		for _, f := range pkg.Files {
			name := fset.Position(f.FileStart).Filename
			if strings.HasSuffix(name, "_test.go") {
				continue
			}
			files = append(files, f)
		}
	}
	var diags []Diagnostic
	pass := &Pass{
		Analyzer: a,
		Fset:     fset,
		Files:    files,
		Pkg:      pkg.Types,
		Info:     pkg.Info,
		report:   func(d Diagnostic) { diags = append(diags, d) },
		suppr:    suppr,
	}
	a.Run(pass)
	return diags
}

// dedup removes adjacent duplicates from a sorted diagnostic slice.
func dedup(diags []Diagnostic) []Diagnostic {
	out := diags[:0]
	for i, d := range diags {
		if i == 0 || d != diags[i-1] {
			out = append(out, d)
		}
	}
	return out
}

// SortDiagnostics orders by file, line, column, analyzer, message and
// removes duplicates in place semantics (returns nothing; slices share
// backing).
func SortDiagnostics(diags []Diagnostic) {
	sort.Slice(diags, func(i, j int) bool {
		a, b := diags[i], diags[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		if a.Analyzer != b.Analyzer {
			return a.Analyzer < b.Analyzer
		}
		return a.Message < b.Message
	})
}
