package analysis

import (
	"go/ast"
	"go/types"
)

// SharedCapture polices goroutine-spawned closures in the sweep
// engine, the fleet and the telemetry codec: a closure launched with `go` may not write to variables it
// captures from the enclosing scope. Writes through a disjoint slice
// or map index (the per-spec out[i] convention) are allowed, as are
// method calls — mutation through a method is the job of Merge-style
// accumulator types and the race detector, not of this analyzer.
// Everything else (captured counters, flags, struct fields, pointer
// targets) makes the merge order — and therefore the result — depend
// on goroutine scheduling.
var SharedCapture = &Analyzer{
	Name: "sharedcapture",
	Doc:  "forbid goroutine closures writing captured shared state in the sweep engine, fleet and telemetry codec",
	Run:  runSharedCapture,
}

// sharedCapturePackages lists the package subtrees where the rule
// applies: the parallel sweep engine, the fleet cluster's node worker
// pool and the telemetry codec's chunk workers, where
// scheduling-dependent writes silently change aggregated results or
// artifact bytes.
var sharedCapturePackages = []string{"repro/internal/sweep", "repro/internal/fleet", "repro/internal/telemetry"}

func runSharedCapture(pass *Pass) {
	if !underAny(pass.Pkg.Path(), sharedCapturePackages) {
		return
	}
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			g, ok := n.(*ast.GoStmt)
			if !ok {
				return true
			}
			if lit, ok := ast.Unparen(g.Call.Fun).(*ast.FuncLit); ok {
				checkGoroutineWrites(pass, lit)
			}
			return true
		})
	}
}

// checkGoroutineWrites flags assignments inside lit whose target is a
// variable declared outside it.
func checkGoroutineWrites(pass *Pass, lit *ast.FuncLit) {
	captured := func(id *ast.Ident) *types.Var {
		v, ok := pass.TypesInfo.ObjectOf(id).(*types.Var)
		if !ok {
			return nil
		}
		if v.Pos() >= lit.Pos() && v.Pos() < lit.End() {
			return nil // declared inside the closure
		}
		return v
	}
	report := func(pos ast.Node, v *types.Var, how string) {
		pass.Reportf(pos.Pos(),
			"goroutine closure %s captured variable %s; scheduling order leaks into the result — use a per-index slot, a channel, or a sync/atomic counter",
			how, v.Name())
	}
	// target resolves an assignable expression to the captured
	// variable it mutates, skipping the sanctioned index form.
	var target func(e ast.Expr) *types.Var
	target = func(e ast.Expr) *types.Var {
		switch t := e.(type) {
		case *ast.Ident:
			return captured(t)
		case *ast.ParenExpr:
			return target(t.X)
		case *ast.IndexExpr:
			return nil // out[i] = ...: the per-spec slot convention
		case *ast.SelectorExpr:
			// res.field = ...: mutating a captured struct.
			if root, ok := rootIdent(t.X); ok {
				return captured(root)
			}
		case *ast.StarExpr:
			// *p = ...: mutating through a captured pointer.
			if root, ok := rootIdent(t.X); ok {
				return captured(root)
			}
		}
		return nil
	}
	ast.Inspect(lit.Body, func(n ast.Node) bool {
		switch s := n.(type) {
		case *ast.AssignStmt:
			for _, l := range s.Lhs {
				if v := target(l); v != nil {
					report(l, v, "assigns to")
				}
			}
		case *ast.IncDecStmt:
			if v := target(s.X); v != nil {
				report(s.X, v, "mutates")
			}
		}
		return true
	})
}

// rootIdent unwraps selectors/indexes/parens to the base identifier.
func rootIdent(e ast.Expr) (*ast.Ident, bool) {
	for {
		switch t := e.(type) {
		case *ast.Ident:
			return t, true
		case *ast.ParenExpr:
			e = t.X
		case *ast.SelectorExpr:
			e = t.X
		case *ast.IndexExpr:
			e = t.X
		case *ast.StarExpr:
			e = t.X
		default:
			return nil, false
		}
	}
}
