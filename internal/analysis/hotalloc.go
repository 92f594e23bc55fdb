package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// HotPathMarker is the comment that opts a file into the hotalloc
// check. Files on the simulator's recurring dispatch path carry it
// (internal/sim/events.go, kernel.go, and the scheduler's timer
// files); cold-path files — setup, teardown, error reporting,
// rendering — do not, and may allocate freely.
const HotPathMarker = "//rd:hotpath"

// hotAllocSprint lists the fmt formatters that allocate their result.
// Fprintf into a reused buffer is fine; Sprintf and friends build a
// fresh string every call.
var hotAllocSprint = map[string]bool{
	"Sprintf":  true,
	"Sprint":   true,
	"Sprintln": true,
}

// HotAlloc flags per-call allocations in files marked //rd:hotpath:
// closures passed to the kernel's timer API (Kernel.At / Kernel.After
// — every arming allocates the closure; recurring timers must use the
// typed AtCall/AfterCall payload instead), fmt.Sprintf/Sprint/
// Sprintln (which allocate the formatted string), by-name
// telemetry.Registry lookups (hot paths keep the pre-registered
// handles: Counter.Inc, Gauge.Set, Histogram.Observe) and string
// concatenation with a non-constant operand (which allocates the
// joined string, unless it is the message of a panic). Genuinely cold
// sites inside a marked file — panic messages on paths where the run
// is already dead — carry an //rdlint:allow hotalloc waiver with a
// written reason.
var HotAlloc = &Analyzer{
	Name: "hotalloc",
	Doc:  "forbid per-call allocations in //rd:hotpath files",
	Run:  runHotAlloc,
}

func runHotAlloc(pass *Pass) {
	for _, f := range pass.Files {
		if !hasHotPathMarker(f) {
			continue
		}
		// quiet holds the concatenations not to report: the operands of
		// one already reported (a + b + c is one finding) and anything
		// inside a panic's argument. Inspect visits parents first.
		quiet := make(map[*ast.BinaryExpr]bool)
		ast.Inspect(f, func(n ast.Node) bool {
			if cat, ok := n.(*ast.BinaryExpr); ok && isStringConcat(pass, cat) {
				for _, operand := range []ast.Expr{cat.X, cat.Y} {
					if inner, ok := ast.Unparen(operand).(*ast.BinaryExpr); ok {
						quiet[inner] = true
					}
				}
				if !quiet[cat] {
					pass.Reportf(cat.Pos(),
						"string concatenation with a non-constant operand allocates the joined string on a //rd:hotpath file; build it once where the operands become known, or waive a cold site with a reason")
				}
				return true
			}
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			if isBuiltinCall(pass, call, "panic") {
				for _, arg := range call.Args {
					ast.Inspect(arg, func(m ast.Node) bool {
						if cat, ok := m.(*ast.BinaryExpr); ok {
							quiet[cat] = true
						}
						return true
					})
				}
				return true
			}
			fn := pass.callee(call)
			if fn == nil {
				return true
			}
			if fn.Pkg() != nil && fn.Pkg().Path() == "fmt" && hotAllocSprint[fn.Name()] {
				pass.Reportf(call.Pos(),
					"fmt.%s allocates its result on a //rd:hotpath file; format into a reused buffer, cache the string, or waive a cold site with a reason",
					fn.Name())
				return true
			}
			if (fn.Name() == "At" || fn.Name() == "After") && isMethodOf(fn, simPackage, "Kernel") {
				for _, arg := range call.Args {
					if _, isLit := arg.(*ast.FuncLit); isLit {
						pass.Reportf(arg.Pos(),
							"closure passed to Kernel.%s allocates per arming on a //rd:hotpath file; recurring timers must use the typed %sCall payload",
							fn.Name(), fn.Name())
					}
					if isMethodValue(pass, arg) {
						pass.Reportf(arg.Pos(),
							"method value passed to Kernel.%s allocates its bound-method closure per arming on a //rd:hotpath file; recurring timers must use the typed %sCall payload",
							fn.Name(), fn.Name())
					}
				}
			}
			if isMethodOf(fn, telemetryPackage, "Registry") {
				pass.Reportf(call.Pos(),
					"telemetry.Registry.%s looks instruments up by name on a //rd:hotpath file; pre-register at wiring time and keep the handle (Counter.Inc / Histogram.Observe are the hot API)",
					fn.Name())
			}
			return true
		})
	}
}

// isStringConcat reports whether e is a + that yields a string at run
// time: a constant expression is folded by the compiler and costs
// nothing.
func isStringConcat(pass *Pass, e *ast.BinaryExpr) bool {
	if e.Op != token.ADD {
		return false
	}
	tv, ok := pass.TypesInfo.Types[e]
	if !ok || tv.Value != nil {
		return false
	}
	b, ok := tv.Type.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsString != 0
}

// isMethodValue reports whether arg is a method-value expression
// (obj.Method used as a value, not called): each evaluation allocates
// a closure binding the receiver, exactly like a func literal.
func isMethodValue(pass *Pass, arg ast.Expr) bool {
	sel, ok := ast.Unparen(arg).(*ast.SelectorExpr)
	if !ok {
		return false
	}
	s, ok := pass.TypesInfo.Selections[sel]
	return ok && s.Kind() == types.MethodVal
}

// hasHotPathMarker reports whether any comment in the file is exactly
// the //rd:hotpath marker line.
func hasHotPathMarker(f *ast.File) bool {
	for _, cg := range f.Comments {
		for _, c := range cg.List {
			if strings.TrimSpace(c.Text) == HotPathMarker {
				return true
			}
		}
	}
	return false
}
