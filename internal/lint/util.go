// Shared AST/type resolution helpers for the analyzers.

package lint

import (
	"go/ast"
	"go/types"
	"strings"
)

// simPackages is the determinism perimeter: every package whose code runs
// inside a trial (or expands/aggregates one) and therefore must be a
// bit-exact function of its seeds. internal/obs, internal/trace and the
// CLIs sit outside — they are telemetry and presentation layers, policed
// by hookneutrality instead.
var simPackages = map[string]bool{
	"radionet/internal/radio":        true,
	"radionet/internal/rng":          true,
	"radionet/internal/graph":        true,
	"radionet/internal/schedule":     true,
	"radionet/internal/cluster":      true,
	"radionet/internal/decay":        true,
	"radionet/internal/compete":      true,
	"radionet/internal/baseline":     true,
	"radionet/internal/ghle":         true,
	"radionet/internal/protocol":     true,
	"radionet/internal/protocol/all": true,
	"radionet/internal/campaign":     true,
	"radionet/internal/precompute":   true,
	"radionet/internal/exp":          true,
}

// SimScope reports whether pkgPath is inside the determinism perimeter.
func SimScope(pkgPath string) bool { return simPackages[pkgPath] }

const (
	rngPath      = "radionet/internal/rng"
	radioPath    = "radionet/internal/radio"
	protocolPath = "radionet/internal/protocol"
	obsPath      = "radionet/internal/obs"
)

// calleeFunc resolves a call expression's callee to its *types.Func
// (package function or method). It returns nil for builtins, type
// conversions, and calls of function-typed values.
func calleeFunc(info *types.Info, call *ast.CallExpr) *types.Func {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		if fn, ok := info.Uses[fun].(*types.Func); ok {
			return fn
		}
	case *ast.SelectorExpr:
		if sel, ok := info.Selections[fun]; ok {
			if fn, ok := sel.Obj().(*types.Func); ok {
				return fn // method or field-func? fields are *types.Var
			}
			return nil
		}
		// Package-qualified call: pkg.Func.
		if fn, ok := info.Uses[fun.Sel].(*types.Func); ok {
			return fn
		}
	}
	return nil
}

// isPkgFunc reports whether fn is the package-level function pkgPath.name
// or a method named name on a type declared in pkgPath.
func isPkgFunc(fn *types.Func, pkgPath, name string) bool {
	return fn != nil && fn.Pkg() != nil && fn.Pkg().Path() == pkgPath && fn.Name() == name
}

// methodRecvNamed returns the named type of fn's receiver (through one
// pointer), or nil for package-level functions.
func methodRecvNamed(fn *types.Func) *types.Named {
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return nil
	}
	t := sig.Recv().Type()
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	named, _ := t.(*types.Named)
	return named
}

// isMethodOf reports whether fn is a method named method on type
// pkgPath.typeName (value or pointer receiver).
func isMethodOf(fn *types.Func, pkgPath, typeName, method string) bool {
	if fn == nil || fn.Name() != method || fn.Pkg() == nil || fn.Pkg().Path() != pkgPath {
		return false
	}
	named := methodRecvNamed(fn)
	return named != nil && named.Obj().Name() == typeName
}

// rootIdent peels selectors, indexing, stars, parens and slicing to the
// leftmost identifier of an lvalue-ish expression ("e.transmit[i]" -> e).
func rootIdent(expr ast.Expr) *ast.Ident {
	for {
		switch e := expr.(type) {
		case *ast.Ident:
			return e
		case *ast.SelectorExpr:
			expr = e.X
		case *ast.IndexExpr:
			expr = e.X
		case *ast.StarExpr:
			expr = e.X
		case *ast.ParenExpr:
			expr = e.X
		case *ast.SliceExpr:
			expr = e.X
		default:
			return nil
		}
	}
}

// walkStack traverses n, invoking fn with each node and the stack of its
// ancestors (outermost first, excluding n itself). Returning false from
// fn prunes the subtree.
func walkStack(n ast.Node, fn func(n ast.Node, stack []ast.Node) bool) {
	var stack []ast.Node
	ast.Inspect(n, func(node ast.Node) bool {
		if node == nil {
			stack = stack[:len(stack)-1]
			return true
		}
		enter := fn(node, stack)
		if enter {
			stack = append(stack, node)
		}
		return enter
	})
}

// enclosingFunc returns the innermost function declaration or literal in
// the ancestor stack, or nil.
func enclosingFunc(stack []ast.Node) ast.Node {
	for i := len(stack) - 1; i >= 0; i-- {
		switch stack[i].(type) {
		case *ast.FuncDecl, *ast.FuncLit:
			return stack[i]
		}
	}
	return nil
}

// isMapType reports whether t's core type is a map.
func isMapType(t types.Type) bool {
	if t == nil {
		return false
	}
	_, ok := t.Underlying().(*types.Map)
	return ok
}

// importPathOf strips quotes off an import spec path.
func importPathOf(spec *ast.ImportSpec) string {
	return strings.Trim(spec.Path.Value, `"`)
}

// funcDoc returns the doc comment of a function declaration ("" for
// literals and undocumented functions).
func funcDoc(n ast.Node) *ast.CommentGroup {
	if d, ok := n.(*ast.FuncDecl); ok {
		return d.Doc
	}
	return nil
}

// hasDirective reports whether the comment group contains a line whose
// text (after "//") starts with the given directive, e.g.
// "radionet:hotpath".
func hasDirective(doc *ast.CommentGroup, directive string) bool {
	if doc == nil {
		return false
	}
	for _, c := range doc.List {
		text := strings.TrimPrefix(c.Text, "//")
		if strings.HasPrefix(strings.TrimSpace(text), directive) {
			return true
		}
	}
	return false
}

// isBlank reports whether expr is the blank identifier.
func isBlank(expr ast.Expr) bool {
	id, ok := expr.(*ast.Ident)
	return ok && id.Name == "_"
}
