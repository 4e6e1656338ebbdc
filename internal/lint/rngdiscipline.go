// The rngdiscipline analyzer: randomness reaches a component only as an
// rng.Rand stream built by rng.New/Fork from an explicitly passed seed.

package lint

import (
	"go/ast"
	"go/token"
	"go/types"
)

// RNGDiscipline enforces, in simulation packages (non-test files):
//
//   - rng.Rand is never constructed as a zero value (composite literal
//     or new(rng.Rand)) — the zero state is unusable by documented
//     contract; streams come from rng.New or Rand.Fork,
//   - the seed argument of rng.New (and the id argument of Fork), and
//     the key argument of rng.NewWordCoins, is derived only from
//     parameters, locals, fields, constants and other rng calls — never
//     from ambient state (any non-rng call, or a mutable package-level
//     variable, in the seed expression is flagged),
//   - a seed — the argument of rng.New, or any argument bound to a
//     parameter named seed — is never derived by +/- arithmetic: adjacent
//     seeds would make sub-runs of adjacent trials coincide, so sub-run
//     seeds are forked (rng.New(seed).Fork(i).Uint64()). Fork ids and
//     NewWordCoins keys are hashed keys, and arithmetic in them is fine.
//
// //lint:seedroot marks a reviewed exception.
var RNGDiscipline = &Analyzer{
	Name:      "rngdiscipline",
	Doc:       "rng.Rand streams are built by New/Fork from explicit seeds, never from ambient state or the zero value",
	Scope:     SimScope,
	SkipTests: true,
	Run:       runRNGDiscipline,
}

func runRNGDiscipline(pass *Pass) {
	for _, file := range pass.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.CompositeLit:
				if isRNGRand(pass.Info.TypeOf(n)) {
					pass.Reportf("seedroot", n.Pos(),
						"rng.Rand composite literal: the zero state is unusable; construct streams with rng.New or Rand.Fork")
				}
			case *ast.CallExpr:
				if fid, ok := ast.Unparen(n.Fun).(*ast.Ident); ok &&
					pass.Info.Uses[fid] == types.Universe.Lookup("new") && len(n.Args) == 1 {
					if tv, ok := pass.Info.Types[n.Args[0]]; ok && isRNGRand(tv.Type) {
						pass.Reportf("seedroot", n.Pos(),
							"new(rng.Rand) yields the unusable zero state; construct streams with rng.New or Rand.Fork")
					}
					return true
				}
				fn := calleeFunc(pass.Info, n)
				newFunc := fn != nil && isPkgFunc(fn, rngPath, "New") && methodRecvNamed(fn) == nil
				if sig, ok := pass.Info.TypeOf(n.Fun).(*types.Signature); ok {
					for i := 0; i < sig.Params().Len() && i < len(n.Args); i++ {
						if newFunc && i == 0 || sig.Params().At(i).Name() == "seed" {
							checkSeedArith(pass, n.Args[i])
						}
					}
				}
				if fn == nil {
					return true
				}
				seedFunc := newFunc || isMethodOf(fn, rngPath, "Rand", "Fork")
				keyFunc := isPkgFunc(fn, rngPath, "NewWordCoins") && methodRecvNamed(fn) == nil
				if seedFunc && len(n.Args) == 1 || keyFunc && len(n.Args) == 2 {
					checkSeedExpr(pass, n.Args[0])
				}
			}
			return true
		})
	}
}

func isRNGRand(t types.Type) bool {
	named, ok := t.(*types.Named)
	return ok && named.Obj().Name() == "Rand" &&
		named.Obj().Pkg() != nil && named.Obj().Pkg().Path() == rngPath
}

// checkSeedExpr walks a seed/id argument and flags constructions from
// ambient state: any call outside package rng (conversions and len/cap
// excepted) and any read of a mutable package-level variable.
func checkSeedExpr(pass *Pass, expr ast.Expr) {
	ast.Inspect(expr, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.CallExpr:
			if tv, ok := pass.Info.Types[n.Fun]; ok && tv.IsType() {
				return true // conversion, value-only
			}
			if fid, ok := ast.Unparen(n.Fun).(*ast.Ident); ok {
				if obj := pass.Info.Uses[fid]; obj == types.Universe.Lookup("len") || obj == types.Universe.Lookup("cap") {
					return true
				}
			}
			fn := calleeFunc(pass.Info, n)
			if fn == nil || fn.Pkg() == nil || fn.Pkg().Path() != rngPath {
				pass.Reportf("seedroot", n.Pos(),
					"seed derived from a call outside radionet/internal/rng: seeds must come from explicit parameters, not ambient state")
				return false
			}
		case *ast.Ident:
			obj := pass.Info.Uses[n]
			v, ok := obj.(*types.Var)
			if !ok || v.IsField() || v.Pkg() == nil {
				return true
			}
			if v.Parent() == v.Pkg().Scope() {
				pass.Reportf("seedroot", n.Pos(),
					"seed reads package-level variable %s: seeds must come from explicit parameters, not mutable package state", n.Name)
			}
		}
		return true
	})
}

// checkSeedArith flags the first +/- in a seed argument, looking through
// parentheses and conversions but not into calls: an rng call's arguments
// are hashed keys, and any other call is checkSeedExpr's business.
func checkSeedArith(pass *Pass, expr ast.Expr) {
	reported := false
	ast.Inspect(expr, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.CallExpr:
			tv, ok := pass.Info.Types[n.Fun]
			return !reported && ok && tv.IsType()
		case *ast.BinaryExpr:
			if !reported && (n.Op == token.ADD || n.Op == token.SUB) {
				pass.Reportf("seedroot", n.Pos(),
					"seed derived by +/- arithmetic: adjacent seeds share sub-runs; fork it instead (rng.New(seed).Fork(i).Uint64())")
				reported = true
			}
		}
		return !reported
	})
}
