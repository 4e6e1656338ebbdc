// Command vet-radionet runs the repository's invariant analyzers
// (internal/lint) over Go packages. It works in two modes:
//
// Standalone (the usual one):
//
//	go run ./cmd/vet-radionet ./...
//
// loads, type-checks and analyzes the matched packages plus the
// whole-module registration-reachability check, printing findings as
// file:line:col: message [analyzer] and exiting 1 if there are any. Run
// on ./... from the module root, it also loads the perfbench module and
// runs the dead-export check (lint.CheckDeadExports), which needs every
// caller in view.
//
// Vettool: the binary also speaks the go vet unitchecker protocol
// (-V=full version handshake, then one *.cfg JSON per package), so
//
//	go build -o /tmp/vet-radionet ./cmd/vet-radionet
//	go vet -vettool=/tmp/vet-radionet ./...
//
// runs the same analyzers under the go command's build cache, including
// over _test.go files (analyzers marked SkipTests still skip them). The
// whole-module checks need the full package graph and run only in
// standalone mode.
package main

import (
	"crypto/sha256"
	"encoding/json"
	"flag"
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"strings"

	"radionet/internal/lint"
)

func main() {
	// The go vet handshake: `-V=full` must print a stable identity line
	// before any flag parsing of our own.
	if len(os.Args) == 2 && strings.HasPrefix(os.Args[1], "-V=") {
		printVersion()
		return
	}
	// go vet probes the tool's flag surface with `-flags`, expecting a
	// JSON array of flag descriptions; this tool passes none through.
	if len(os.Args) == 2 && os.Args[1] == "-flags" {
		fmt.Println("[]")
		return
	}
	if len(os.Args) == 2 && strings.HasSuffix(os.Args[1], ".cfg") {
		os.Exit(unitcheck(os.Args[1]))
	}
	os.Exit(standalone())
}

func standalone() int {
	var (
		listFlag = flag.Bool("list", false, "list analyzers and exit")
		jsonFlag = flag.Bool("json", false, "emit findings as JSON")
	)
	flag.Usage = func() {
		fmt.Fprintf(flag.CommandLine.Output(),
			"usage: vet-radionet [-list] [-json] [packages]\n\nAnalyzers:\n")
		for _, a := range lint.All() {
			fmt.Fprintf(flag.CommandLine.Output(), "  %-14s %s\n", a.Name, a.Doc)
		}
		flag.PrintDefaults()
	}
	flag.Parse()

	if *listFlag {
		for _, a := range lint.All() {
			fmt.Printf("%-14s %s\n", a.Name, a.Doc)
		}
		return 0
	}

	patterns := flag.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	var (
		res, bench *lint.Result
		err        error
	)
	if root := moduleRoot(); len(patterns) == 1 && patterns[0] == "./..." && root != "" {
		res, bench, err = lint.LoadPerimeter(root)
	} else {
		res, err = lint.Load("", patterns...)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	diags := lint.RunAnalyzers(res, lint.All())
	diags = append(diags, lint.CheckRegistryReachability(res)...)
	if bench != nil {
		diags = append(diags, lint.CheckDeadExports(res, bench)...)
	}
	lint.SortDiagnostics(diags)

	if *jsonFlag {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(diags); err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 1
		}
	} else {
		for _, d := range diags {
			fmt.Println(d)
		}
	}
	if len(diags) > 0 {
		fmt.Fprintf(os.Stderr, "vet-radionet: %d finding(s)\n", len(diags))
		return 1
	}
	return 0
}

// moduleRoot returns the working directory if it is the root of the main
// module, else "".
func moduleRoot() string {
	out, err := exec.Command("go", "list", "-m", "-f", "{{.Dir}}").Output()
	if err != nil {
		return ""
	}
	wd, err := os.Getwd()
	if err != nil || filepath.Clean(strings.TrimSpace(string(out))) != filepath.Clean(wd) {
		return ""
	}
	return wd
}

// printVersion implements the go vet -V=full handshake: name, a version
// marker, and a content hash of the executable so the go command can
// cache vet results per tool build.
func printVersion() {
	exe, err := os.Executable()
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	f, err := os.Open(exe)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	defer f.Close()
	h := sha256.New()
	if _, err := io.Copy(h, f); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	fmt.Printf("%s version devel comments-go-here buildID=%02x\n",
		filepath.Base(exe), h.Sum(nil))
}

// vetConfig is the per-package JSON configuration the go command hands a
// vettool (the unitchecker protocol).
type vetConfig struct {
	ID                        string
	Compiler                  string
	Dir                       string
	ImportPath                string
	GoVersion                 string
	GoFiles                   []string
	NonGoFiles                []string
	IgnoredGoFiles            []string
	ImportMap                 map[string]string
	PackageFile               map[string]string
	Standard                  map[string]bool
	PackageVetx               map[string]string
	VetxOnly                  bool
	VetxOutput                string
	SucceedOnTypecheckFailure bool
}

// unitcheck analyzes one package under the go vet protocol and returns
// the process exit code: 0 clean, 2 findings, 1 operational failure.
func unitcheck(cfgPath string) int {
	data, err := os.ReadFile(cfgPath)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	var cfg vetConfig
	if err := json.Unmarshal(data, &cfg); err != nil {
		fmt.Fprintf(os.Stderr, "vet-radionet: parsing %s: %v\n", cfgPath, err)
		return 1
	}
	// The go command asks dependencies for "facts" (vetx) before the
	// target; this suite keeps no cross-package facts, so an empty file
	// satisfies the protocol.
	if cfg.VetxOutput != "" {
		if err := os.WriteFile(cfg.VetxOutput, nil, 0o666); err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 1
		}
	}
	if cfg.VetxOnly {
		return 0
	}

	fset := token.NewFileSet()
	var files []*ast.File
	for _, name := range cfg.GoFiles {
		f, err := parser.ParseFile(fset, name, nil, parser.ParseComments)
		if err != nil {
			if cfg.SucceedOnTypecheckFailure {
				return 0
			}
			fmt.Fprintln(os.Stderr, err)
			return 1
		}
		files = append(files, f)
	}

	imp := importer.ForCompiler(fset, cfg.Compiler, func(importPath string) (io.ReadCloser, error) {
		mapped, ok := cfg.ImportMap[importPath]
		if !ok {
			return nil, fmt.Errorf("can't resolve import %q", importPath)
		}
		file, ok := cfg.PackageFile[mapped]
		if !ok {
			return nil, fmt.Errorf("no package file for %q", mapped)
		}
		return os.Open(file)
	})
	tconf := types.Config{
		Importer:  imp,
		Sizes:     types.SizesFor(cfg.Compiler, build.Default.GOARCH),
		GoVersion: cfg.GoVersion,
	}
	info := lint.NewTypesInfo()
	tpkg, err := tconf.Check(cfg.ImportPath, fset, files, info)
	if err != nil {
		if cfg.SucceedOnTypecheckFailure {
			return 0
		}
		fmt.Fprintln(os.Stderr, err)
		return 1
	}

	// Test variants carry an annotated import path, e.g.
	// "p [p.test]" or "p.test"; Scope decisions use the base path.
	scopePath := cfg.ImportPath
	if i := strings.Index(scopePath, " ["); i >= 0 {
		scopePath = scopePath[:i]
	}
	pkg := &lint.Package{
		ImportPath: scopePath,
		Dir:        cfg.Dir,
		GoFiles:    cfg.GoFiles,
		Files:      files,
		Types:      tpkg,
		Info:       info,
	}
	res := &lint.Result{Fset: fset, Pkgs: []*lint.Package{pkg}}
	diags := lint.RunAnalyzers(res, lint.All())
	if len(diags) == 0 {
		return 0
	}
	for _, d := range diags {
		fmt.Fprintf(os.Stderr, "%s: %s\n", d.Pos, d.Message)
	}
	return 2
}
