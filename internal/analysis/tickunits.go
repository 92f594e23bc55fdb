package analysis

import (
	"go/ast"
	"go/types"
)

// TickUnits flags conversions that launder time units past the type
// system:
//
//  1. ticks.Ticks(x) where x is derived from the core-clock constants
//     (ticks.CoreHz, ticks.CoreCyclesNum, ticks.CoreCyclesDenom) in
//     any deterministic package. The 27 MHz tick and the 200 MHz core
//     cycle relate by the non-integer ratio 200/27; hand-rolled
//     conversions truncate differently at different sites (the class
//     of error GridSim-style simulators are known for). The exact,
//     rounding-audited helpers ticks.FromCoreCycles / Ticks.CoreCycles
//     are the only sanctioned crossing.
//
//  2. ticks.Ticks(x) where x is a float expression, in any
//     deterministic package: float-derived tick counts embed rounding
//     in the schedule.
//
//  3. float64/float32/ticks.Rate conversions applied to a Ticks value
//     inside the admission/grant packages (internal/rm,
//     internal/policy). Admission sits on an exact schedulability
//     boundary (sum of CPU/period fractions vs. the schedulable
//     fraction); the paper's admission decisions reproduce only with
//     ticks.Frac exact rational arithmetic. Reporting code outside
//     admission (trace, metrics, examples) may use floats freely.
var TickUnits = &Analyzer{
	Name: "tickunits",
	Doc:  "flag unit-laundering conversions between ticks, core cycles and floats",
	Run:  runTickUnits,
}

func runTickUnits(pass *Pass) {
	path := pass.Pkg.Path()
	if path == TicksPackage {
		return // the helpers themselves live here
	}
	deterministic := InDeterministicPackage(path)
	admission := InAdmissionPackage(path)
	if !deterministic && !admission {
		return
	}
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok || len(call.Args) != 1 {
				return true
			}
			tv, ok := pass.TypesInfo.Types[call.Fun]
			if !ok || !tv.IsType() {
				return true
			}
			arg := call.Args[0]
			target := tv.Type

			if deterministic && isTicksType(target) {
				if bad := coreConstRef(pass, arg); bad != "" {
					pass.Reportf(call.Pos(),
						"ticks.Ticks conversion derives its value from ticks.%s; convert core cycles with ticks.FromCoreCycles / Ticks.CoreCycles so the exact 200/27 ratio is applied once",
						bad)
					return true
				}
				if isFloatType(pass.TypesInfo.TypeOf(arg)) {
					pass.Reportf(call.Pos(),
						"ticks.Ticks conversion from a float embeds rounding in the schedule; use integer tick arithmetic or ticks.Frac")
					return true
				}
			}

			if admission && isFloatType(target) && isTicksType(pass.TypesInfo.TypeOf(arg)) {
				pass.Reportf(call.Pos(),
					"float conversion of a ticks.Ticks value in admission/grant package %s; admission arithmetic must use exact ticks.Frac (see ticks.FracOf)",
					path)
			}
			return true
		})
	}
}

// coreConstRef returns the name of a core-clock constant referenced
// inside e, or "".
func coreConstRef(pass *Pass, e ast.Expr) string {
	found := ""
	ast.Inspect(e, func(n ast.Node) bool {
		id, ok := n.(*ast.Ident)
		if !ok || found != "" {
			return found == ""
		}
		obj := pass.TypesInfo.Uses[id]
		if obj == nil || obj.Pkg() == nil || obj.Pkg().Path() != TicksPackage {
			return true
		}
		switch obj.Name() {
		case "CoreHz", "CoreCyclesNum", "CoreCyclesDenom":
			found = obj.Name()
			return false
		}
		return true
	})
	return found
}

func isTicksType(t types.Type) bool {
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj.Name() == "Ticks" && obj.Pkg() != nil && obj.Pkg().Path() == TicksPackage
}

func isFloatType(t types.Type) bool {
	if t == nil {
		return false
	}
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsFloat != 0
}
