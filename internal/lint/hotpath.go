// The hotpath analyzer: functions annotated //radionet:hotpath run once
// per simulated round across millions of rounds; a single allocation or
// interface boxing there dominates the profile. perfbench measures the
// symptom; this analyzer pins the cause.

package lint

import (
	"go/ast"
	"go/token"
	"go/types"
)

// HotPath flags, inside functions whose doc comment carries the
// //radionet:hotpath directive:
//
//   - make, new, map/slice composite literals, &T{...} and func literals
//     — per-call heap allocation,
//   - append to a slice declared inside the function — a per-call grow,
//     unlike appends to receiver fields or parameters, which amortize
//     across rounds,
//   - passing or converting a concrete value to an interface — boxing
//     allocates and adds dynamic dispatch.
//
// //lint:alloc marks a reviewed exception (a cold branch, a once-only
// setup path inside an otherwise hot function).
var HotPath = &Analyzer{
	Name:      "hotpath",
	Doc:       "no per-call allocation or interface boxing in //radionet:hotpath functions",
	SkipTests: true,
	Run:       runHotPath,
}

func runHotPath(pass *Pass) {
	for _, file := range pass.Files {
		for _, decl := range file.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil || !hasDirective(fd.Doc, "radionet:hotpath") {
				continue
			}
			checkHotFunc(pass, fd)
		}
	}
}

func checkHotFunc(pass *Pass, fd *ast.FuncDecl) {
	bodyLo, bodyHi := fd.Body.Pos(), fd.Body.End()
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			pass.Reportf("alloc", n.Pos(), "func literal in hot path: closures allocate per call")
		case *ast.CompositeLit:
			switch pass.Info.TypeOf(n).Underlying().(type) {
			case *types.Map:
				pass.Reportf("alloc", n.Pos(), "map literal in hot path allocates per call")
			case *types.Slice:
				pass.Reportf("alloc", n.Pos(), "slice literal in hot path allocates per call")
			}
			// Struct and array value literals build on the stack; only
			// flag them when their address is taken (see UnaryExpr).
		case *ast.UnaryExpr:
			if cl, ok := ast.Unparen(n.X).(*ast.CompositeLit); ok && n.Op.String() == "&" {
				pass.Reportf("alloc", cl.Pos(), "&composite literal in hot path escapes to the heap per call")
			}
		case *ast.CallExpr:
			checkHotCall(pass, n, bodyLo, bodyHi)
		}
		return true
	})
}

func checkHotCall(pass *Pass, call *ast.CallExpr, bodyLo, bodyHi token.Pos) {
	// Builtins: make/new always allocate; append is a per-call grow when
	// the destination lives inside this function.
	if fid, ok := ast.Unparen(call.Fun).(*ast.Ident); ok {
		switch pass.Info.Uses[fid] {
		case types.Universe.Lookup("make"):
			pass.Reportf("alloc", call.Pos(), "make in hot path allocates per call; hoist the buffer to a reused field")
			return
		case types.Universe.Lookup("new"):
			pass.Reportf("alloc", call.Pos(), "new in hot path allocates per call; hoist to a reused field")
			return
		case types.Universe.Lookup("append"):
			if len(call.Args) > 0 {
				if dst := rootIdent(call.Args[0]); dst != nil {
					if obj := pass.Info.ObjectOf(dst); obj != nil && obj.Pos() >= bodyLo && obj.Pos() < bodyHi {
						pass.Reportf("alloc", call.Pos(),
							"append to %s, declared in this function: the slice regrows every call; append to a reused field or parameter instead", dst.Name)
					}
				}
			}
			return
		}
	}
	// Conversion to an interface boxes the operand.
	if tv, ok := pass.Info.Types[call.Fun]; ok && tv.IsType() {
		if types.IsInterface(tv.Type) && len(call.Args) == 1 && boxes(pass, call.Args[0]) {
			pass.Reportf("alloc", call.Pos(), "conversion to interface in hot path boxes the value per call")
		}
		return
	}
	// Interface-typed parameters box concrete arguments.
	sig, ok := pass.Info.TypeOf(call.Fun).(*types.Signature)
	if !ok {
		return
	}
	params := sig.Params()
	for i, arg := range call.Args {
		var pt types.Type
		switch {
		case sig.Variadic() && i >= params.Len()-1:
			if call.Ellipsis.IsValid() {
				pt = params.At(params.Len() - 1).Type() // s... passes the slice itself
			} else {
				pt = params.At(params.Len() - 1).Type().(*types.Slice).Elem()
			}
		case i < params.Len():
			pt = params.At(i).Type()
		}
		if pt != nil && types.IsInterface(pt) && boxes(pass, arg) {
			pass.Reportf("alloc", arg.Pos(),
				"concrete value boxed into interface parameter in hot path")
		}
	}
}

// boxes reports whether passing arg to an interface slot allocates: the
// argument has a concrete (non-interface, non-nil) type.
func boxes(pass *Pass, arg ast.Expr) bool {
	tv, ok := pass.Info.Types[arg]
	if !ok || tv.Type == nil {
		return false
	}
	if tv.IsNil() {
		return false
	}
	return !types.IsInterface(tv.Type)
}
