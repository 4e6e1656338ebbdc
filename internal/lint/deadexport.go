// The deadexport check: an exported function or method that nothing but
// tests calls is dead weight — code to read, review and keep compiling
// for no run of the program. It is whole-module by nature (a caller may
// sit in any package, or in the perfbench module), so like the
// registration-reachability check it runs over a full load, never per
// package.

package lint

import (
	"go/ast"
	"go/types"
	"path/filepath"
)

// facadePath is the module's root package: radionet.go is the public
// surface, whose exports exist for importers outside the module.
const facadePath = "radionet"

// CheckDeadExports reports every exported function or method declared in
// a non-test file of res's packages that no non-test file of res or of
// callers references. Exempt are the root facade, main packages (nothing
// imports them), and methods that satisfy a method of an interface the
// program can see (Run, ActBulk, String, ...): an interface call reaches
// them without naming them. A test harness kept on purpose carries a
// //lint:testonly <reason> annotation on the declaration or the line
// above it.
//
// callers are loads whose non-test files count as callers but whose own
// declarations are not checked (the perfbench module, which imports the
// root module's packages). The check is only meaningful over a load of
// the whole module plus every such caller; over a partial load it
// reports functions whose callers were left out.
func CheckDeadExports(res *Result, callers ...*Result) []Diagnostic {
	loads := append([]*Result{res}, callers...)
	used := map[string]bool{}
	for _, l := range loads {
		for _, pkg := range l.Pkgs {
			markUses(pkg, used)
		}
	}
	ifaces := interfaces(loads)

	var diags []Diagnostic
	for _, pkg := range res.Pkgs {
		if pkg.ImportPath == facadePath || pkg.Types.Name() == "main" {
			continue
		}
		for _, file := range pkg.Files {
			suppr, _ := scanSuppressions(res.Fset, file)
		decls:
			for _, decl := range file.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok || !fd.Name.IsExported() {
					continue
				}
				fn := pkg.Info.Defs[fd.Name].(*types.Func)
				if used[fn.FullName()] || satisfiesInterface(fn, ifaces) {
					continue
				}
				line := res.Fset.Position(fd.Pos()).Line
				for _, l := range [2]int{line, line - 1} {
					if s, ok := suppr[l]; ok && s.key == "testonly" {
						continue decls
					}
				}
				diags = append(diags, Diagnostic{
					Pos:      res.Fset.Position(fd.Name.Pos()),
					Analyzer: "deadexport",
					Message:  fn.FullName() + " is exported but no non-test file calls it; delete it, or move it into a _test.go file",
				})
			}
		}
	}
	SortDiagnostics(diags)
	return diags
}

// markUses records the full name of every function and method pkg's
// files reference, except a function's references to itself.
func markUses(pkg *Package, used map[string]bool) {
	for _, file := range pkg.Files {
		for _, decl := range file.Decls {
			var self types.Object
			if fd, ok := decl.(*ast.FuncDecl); ok {
				self = pkg.Info.Defs[fd.Name]
			}
			ast.Inspect(decl, func(n ast.Node) bool {
				id, ok := n.(*ast.Ident)
				if !ok {
					return true
				}
				if fn, ok := pkg.Info.Uses[id].(*types.Func); ok && fn.Origin() != self {
					used[fn.Origin().FullName()] = true
				}
				return true
			})
		}
	}
}

// interfaces collects the interfaces with methods that the loads can
// see: error, and the named ones declared in their packages and in every
// package they import, the standard library's (fmt.Stringer, ...)
// included.
func interfaces(loads []*Result) []*types.Interface {
	out := []*types.Interface{types.Universe.Lookup("error").Type().Underlying().(*types.Interface)}
	seen := map[*types.Package]bool{}
	var visit func(p *types.Package)
	visit = func(p *types.Package) {
		if seen[p] {
			return
		}
		seen[p] = true
		scope := p.Scope()
		for _, name := range scope.Names() {
			if tn, ok := scope.Lookup(name).(*types.TypeName); ok {
				if it, ok := tn.Type().Underlying().(*types.Interface); ok && it.NumMethods() > 0 {
					out = append(out, it)
				}
			}
		}
		for _, imp := range p.Imports() {
			visit(imp)
		}
	}
	for _, l := range loads {
		for _, pkg := range l.Pkgs {
			visit(pkg.Types)
		}
	}
	return out
}

// satisfiesInterface reports whether fn is a method through which its
// receiver type (value or pointer) implements an interface method of the
// same name.
func satisfiesInterface(fn *types.Func, ifaces []*types.Interface) bool {
	named := methodRecvNamed(fn)
	if named == nil || named.TypeParams().Len() > 0 {
		return false
	}
	ptr := types.NewPointer(named)
	for _, it := range ifaces {
		if !hasMethod(it, fn.Name()) {
			continue
		}
		if types.Implements(named, it) || types.Implements(ptr, it) {
			return true
		}
	}
	return false
}

func hasMethod(it *types.Interface, name string) bool {
	for i := range it.NumMethods() {
		if it.Method(i).Name() == name {
			return true
		}
	}
	return false
}

// benchModule is the directory, relative to the module root, of the
// repository benchmark's module: its own go.mod, so "./..." at the root
// does not load it, yet it imports the root module's packages.
const benchModule = "perfbench"

// LoadPerimeter loads what CheckDeadExports needs to see: every package
// of the module rooted at root, and every package of its perfbench
// module as callers.
func LoadPerimeter(root string) (res, bench *Result, err error) {
	if res, err = Load(root, "./..."); err != nil {
		return nil, nil, err
	}
	if bench, err = Load(filepath.Join(root, benchModule), "./..."); err != nil {
		return nil, nil, err
	}
	return res, bench, nil
}
