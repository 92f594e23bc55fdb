package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
)

// telemetryPackage is where Spans and the instrument Registry live.
const telemetryPackage = "repro/internal/telemetry"

// SpanPair audits the targets of causal span links. Spans are recorded
// closed (Complete, Instant), so a link is the only way two of them
// pair up; the analyzer keeps the name waivers spell.
var SpanPair = &Analyzer{
	Name: "spanpair",
	Doc:  "require telemetry Spans.SetLink targets to be span IDs the span API produced",
	Run:  runSpanPair,
}

func runSpanPair(pass *Pass) {
	for _, f := range pass.Files {
		for _, d := range f.Decls {
			if fd, ok := d.(*ast.FuncDecl); ok && fd.Body != nil {
				checkSpanLinks(pass, fd.Body)
			}
		}
	}
}

// checkSpanLinks audits every Spans.SetLink target in the function: a
// compile-time constant, or a local variable that only ever holds
// constants, names a span that was never begun. (SetLink tolerates a
// zero target at runtime, so the mistake is silent: the link is simply
// dropped and the causal chain ends early.) Targets read from
// parameters, fields, calls, or any non-constant assignment are
// trusted — the span was produced somewhere this function can't see.
func checkSpanLinks(pass *Pass, body *ast.BlockStmt) {
	// Variables with at least one non-constant assignment, and
	// variables that are closure parameters or have their address
	// taken — all exempt from the constant-only judgment.
	exempt := map[*types.Var]bool{}
	markExempt := func(e ast.Expr) {
		if id, ok := ast.Unparen(e).(*ast.Ident); ok {
			if v, ok := pass.TypesInfo.ObjectOf(id).(*types.Var); ok {
				exempt[v] = true
			}
		}
	}
	ast.Inspect(body, func(n ast.Node) bool {
		switch s := n.(type) {
		case *ast.AssignStmt:
			if len(s.Lhs) != len(s.Rhs) {
				for _, l := range s.Lhs { // multi-value: never constant
					markExempt(l)
				}
				return true
			}
			for i, l := range s.Lhs {
				if pass.TypesInfo.Types[s.Rhs[i]].Value == nil {
					markExempt(l)
				}
			}
		case *ast.ValueSpec:
			for i, name := range s.Names {
				if i < len(s.Values) && pass.TypesInfo.Types[s.Values[i]].Value == nil {
					markExempt(name)
				}
			}
		case *ast.UnaryExpr:
			if s.Op == token.AND {
				markExempt(s.X) // address taken: assigned out of view
			}
		case *ast.FuncLit:
			for _, f := range s.Type.Params.List {
				for _, name := range f.Names {
					markExempt(name)
				}
			}
		}
		return true
	})

	ast.Inspect(body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok || len(call.Args) != 3 {
			return true
		}
		if fn := pass.callee(call); fn == nil || fn.Name() != "SetLink" || !isMethodOf(fn, telemetryPackage, "Spans") {
			return true
		}
		target := ast.Unparen(call.Args[2])
		if pass.TypesInfo.Types[target].Value != nil {
			pass.Reportf(target.Pos(),
				"SetLink target is a constant, not a span that was begun; link a SpanID from Complete/Instant/FindLast")
			return true
		}
		id, ok := target.(*ast.Ident)
		if !ok {
			return true // field/index/call: produced elsewhere, trusted
		}
		v, ok := pass.TypesInfo.Uses[id].(*types.Var)
		if !ok || exempt[v] {
			return true
		}
		// Only judge variables declared inside this function; anything
		// from an outer scope (parameters included) is trusted.
		if v.Pos() < body.Pos() || v.Pos() > body.End() {
			return true
		}
		pass.Reportf(target.Pos(),
			"SetLink target %s never holds a span ID in this function; link a SpanID from Complete/Instant/FindLast", v.Name())
		return true
	})
}
