// The hookneutrality analyzer: observation must not perturb the run.
// Telemetry hooks and everything in internal/obs may read the world and
// bump atomic counters, but must never call back into engine or campaign
// mutators, touch rng streams, or scribble on shared state — the
// telemetry-neutrality smoke (byte-identical output with obs on or off)
// is the dynamic half of this contract; the analyzer is the static half.

package lint

import (
	"go/ast"
	"go/token"
	"go/types"
)

// HookNeutrality enforces two perimeters:
//
//   - everywhere: a function whose signature structurally matches
//     radio.RoundHook — func(int64, []int32, int, int) with no results —
//     must not call engine/campaign mutating APIs, must not use
//     internal/rng, and must not write to variables declared outside the
//     hook itself (captured state; atomic counters are method calls and
//     pass). //lint:hookstate marks a reviewed exception, e.g. a
//     single-engine trace recorder documented non-concurrent.
//   - package internal/obs: no rng import, no engine/campaign mutator
//     calls anywhere, and no writes to package-level variables outside
//     func init.
var HookNeutrality = &Analyzer{
	Name:      "hookneutrality",
	Doc:       "round hooks and internal/obs must observe without mutating engine, campaign, rng or shared state",
	SkipTests: true,
	Run:       runHookNeutrality,
}

// engineMutators lists the radio-package calls that advance or
// reconfigure a simulation — a hook firing mid-round must never reenter
// them.
var engineMutators = map[string]map[string]bool{
	"Engine":   {"Step": true, "Run": true, "RunUntil": true},
	"Progress": {"Add": true},
}

const campaignPath = "radionet/internal/campaign"

func runHookNeutrality(pass *Pass) {
	inObs := pass.Pkg.Path() == obsPath
	for _, file := range pass.Files {
		if inObs {
			for _, spec := range file.Imports {
				if importPathOf(spec) == rngPath {
					// Key "" — obs consuming rng streams has no sanctioned
					// variant; an observer that draws randomness perturbs
					// every stream forked after it.
					pass.Reportf("", spec.Pos(),
						"internal/obs imports %s: observers must not consume or fork rng streams", rngPath)
				}
			}
		}
		walkStack(file, func(n ast.Node, stack []ast.Node) bool {
			switch n := n.(type) {
			case *ast.CallExpr:
				if inObs {
					checkNeutralCall(pass, n, "internal/obs")
				}
			case *ast.AssignStmt, *ast.IncDecStmt:
				if inObs && !inInitFunc(stack) {
					checkObsPackageWrite(pass, n)
				}
			case *ast.FuncLit:
				if sig, ok := pass.Info.TypeOf(n).(*types.Signature); ok && isRoundHookSig(sig) {
					checkHookBody(pass, n.Body, n.Pos(), n.End())
				}
			case *ast.FuncDecl:
				if n.Body == nil {
					return true
				}
				if fn, ok := pass.Info.Defs[n.Name].(*types.Func); ok {
					if sig, ok := fn.Type().(*types.Signature); ok && sig.Recv() == nil && isRoundHookSig(sig) {
						checkHookBody(pass, n.Body, n.Pos(), n.End())
					}
				}
			}
			return true
		})
	}
}

// isRoundHookSig reports whether sig structurally matches
// radio.RoundHook: func(int64, []int32, int, int) with no results. The
// match is structural, not nominal — RoundHook is a defined func type,
// so implementations are ordinary funcs assignable to it and carry no
// marker of their own.
func isRoundHookSig(sig *types.Signature) bool {
	if sig.Results().Len() != 0 || sig.Variadic() || sig.Params().Len() != 4 {
		return false
	}
	p := sig.Params()
	return isBasicKind(p.At(0).Type(), types.Int64) &&
		isSliceOfKind(p.At(1).Type(), types.Int32) &&
		isBasicKind(p.At(2).Type(), types.Int) &&
		isBasicKind(p.At(3).Type(), types.Int)
}

func isBasicKind(t types.Type, kind types.BasicKind) bool {
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Kind() == kind
}

func isSliceOfKind(t types.Type, kind types.BasicKind) bool {
	s, ok := t.Underlying().(*types.Slice)
	return ok && isBasicKind(s.Elem(), kind)
}

// checkHookBody applies the hook rules to a RoundHook-shaped function
// whose source span is [lo, hi): no mutator calls, no rng use, no writes
// to variables declared outside the span.
func checkHookBody(pass *Pass, body *ast.BlockStmt, lo, hi token.Pos) {
	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.CallExpr:
			checkNeutralCall(pass, n, "a round hook")
		case *ast.AssignStmt:
			for _, lhs := range n.Lhs {
				checkHookWrite(pass, lhs, lo, hi)
			}
		case *ast.IncDecStmt:
			checkHookWrite(pass, n.X, lo, hi)
		}
		return true
	})
}

// checkNeutralCall flags calls a neutral observer must not make: engine
// mutators, anything in internal/campaign, and anything in internal/rng.
func checkNeutralCall(pass *Pass, call *ast.CallExpr, where string) {
	fn := calleeFunc(pass.Info, call)
	if fn == nil || fn.Pkg() == nil {
		return
	}
	switch fn.Pkg().Path() {
	case radioPath:
		if recv := methodRecvNamed(fn); recv != nil && engineMutators[recv.Obj().Name()][fn.Name()] {
			pass.Reportf("hookstate", call.Pos(),
				"%s calls radio.%s.%s, which mutates the simulation it is observing", where, recv.Obj().Name(), fn.Name())
		}
	case campaignPath:
		pass.Reportf("hookstate", call.Pos(),
			"%s calls into internal/campaign: observers must not drive campaign execution", where)
	case rngPath:
		pass.Reportf("hookstate", call.Pos(),
			"%s uses internal/rng: an observer that consumes randomness perturbs every later stream", where)
	}
}

// checkHookWrite flags an assignment target whose root variable is
// declared outside the hook's source span — captured state shared with
// the engine or other hooks.
func checkHookWrite(pass *Pass, lhs ast.Expr, lo, hi token.Pos) {
	id := rootIdent(lhs)
	if id == nil || isBlank(id) {
		return
	}
	obj := pass.Info.ObjectOf(id)
	v, ok := obj.(*types.Var)
	if !ok {
		return
	}
	if v.Pos() < lo || v.Pos() >= hi {
		pass.Reportf("hookstate", lhs.Pos(),
			"round hook writes %s, declared outside the hook: use atomic counters or annotate //lint:hookstate with the safety argument", id.Name)
	}
}

// checkObsPackageWrite flags writes to obs package-level variables
// outside init: shared mutable package state is how an observer leaks
// ordering effects between engines.
func checkObsPackageWrite(pass *Pass, n ast.Node) {
	report := func(lhs ast.Expr) {
		id := rootIdent(lhs)
		if id == nil || isBlank(id) {
			return
		}
		v, ok := pass.Info.ObjectOf(id).(*types.Var)
		if !ok || v.Pkg() == nil || v.Parent() != v.Pkg().Scope() {
			return
		}
		pass.Reportf("hookstate", lhs.Pos(),
			"internal/obs writes package-level variable %s outside init", id.Name)
	}
	switch n := n.(type) {
	case *ast.AssignStmt:
		for _, lhs := range n.Lhs {
			report(lhs)
		}
	case *ast.IncDecStmt:
		report(n.X)
	}
}

// inInitFunc reports whether the ancestor stack is inside func init.
func inInitFunc(stack []ast.Node) bool {
	for i := len(stack) - 1; i >= 0; i-- {
		if d, ok := stack[i].(*ast.FuncDecl); ok {
			return d.Recv == nil && d.Name.Name == "init"
		}
	}
	return false
}
