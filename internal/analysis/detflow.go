package analysis

import (
	"fmt"
	"go/ast"
	"go/types"
	"path"
	"strings"
)

// detflow: interprocedural taint analysis from nondeterministic host
// sources (hostSources: wall clock, raw rand, environment, process
// state) to the deterministic record sinks (trace.Recorder observer
// methods, telemetry spans and metrics). Function summaries live on
// the run, so taint crosses package boundaries: a cmd helper that
// returns time.Now().UnixNano() contaminates a deterministic package
// that records its result, even though neither file mentions the
// clock and the trace in the same breath.
//
// Three diagnostic classes:
//
//   - a tainted value passed to a sink ("flows into"), reported in
//     every module package — host time in a replayable record is
//     wrong no matter who writes it;
//   - a deterministic package calling a function whose results are
//     host-derived ("host-derived"), reported for cross-package calls
//     only (the in-package root call is the domain of wallclock /
//     rawrand / the class below);
//   - a deterministic package reading host state directly through a
//     hostState source, e.g. os.Getenv ("reads host state").
//
// Known holes, by design: taint through interfaces other than
// module-local On* observer interfaces, through struct fields across
// function boundaries, and through channels between goroutines is
// not tracked.

// DetFlow reports nondeterministic host values flowing into
// deterministic records, across function and package boundaries.
var DetFlow = &Analyzer{
	Name: "detflow",
	Doc:  "trace nondeterministic host values into deterministic records",
	Run:  runDetFlow,
}

// detflowSinkMethods lists sink receiver types (package path, type
// name) and the methods whose arguments become part of a
// deterministic record. A nil set means "every method whose name
// starts with On" (the observer-callback convention).
var detflowSinkMethods = map[[2]string]map[string]bool{
	{"repro/internal/trace", "Recorder"}:      nil,
	{"repro/internal/telemetry", "Spans"}:     {"Complete": true, "Instant": true, "SetDetail": true},
	{"repro/internal/telemetry", "Counter"}:   {"Add": true},
	{"repro/internal/telemetry", "Gauge"}:     {"Set": true},
	{"repro/internal/telemetry", "Histogram"}: {"Observe": true},
	{"repro/internal/telemetry", "EventLog"}:  {"Record": true},
}

// runDetFlow summarizes and checks one package. Only packages of this
// module pass through here (the loader hands the driver nothing else),
// so the standard library is never summarized: its nondeterminism
// enters through hostSources alone, and coarse taint cannot cascade
// through fmt from runtime.GOMAXPROCS.
func runDetFlow(pass *Pass) {
	var fns []*ast.FuncDecl
	for _, f := range pass.Files {
		for _, d := range f.Decls {
			if fd, ok := d.(*ast.FuncDecl); ok && fd.Body != nil {
				fns = append(fns, fd)
			}
		}
	}
	// Package-local fixpoint: summaries of functions defined later in
	// the file (or in a later file) must reach their callers, so
	// iterate until no summary changes. Bounded by the call-chain
	// depth, which is bounded by the function count.
	for round := 0; round <= len(fns)+1; round++ {
		changed := false
		for _, fn := range fns {
			if analyzeFn(pass, fn, false) {
				changed = true
			}
		}
		if !changed {
			break
		}
	}
	// Reporting pass over the stable summaries.
	for _, fn := range fns {
		analyzeFn(pass, fn, true)
	}
}

// analyzeFn runs the flow-insensitive taint walk over one function.
// With report=false it only updates summaries and reports whether
// they changed; with report=true it emits diagnostics against the
// stable summaries.
func analyzeFn(pass *Pass, decl *ast.FuncDecl, report bool) bool {
	obj, _ := pass.TypesInfo.Defs[decl.Name].(*types.Func)
	if obj == nil {
		return false
	}
	sig := obj.Type().(*types.Signature)

	params := map[*types.Var]int{}
	for i := 0; i < sig.Params().Len(); i++ {
		params[sig.Params().At(i)] = i
	}
	var namedResults []*types.Var
	for i := 0; i < sig.Results().Len(); i++ {
		if r := sig.Results().At(i); r.Name() != "" {
			namedResults = append(namedResults, r)
		}
	}

	// Returns inside function literals belong to the literal, not to
	// this function's summary.
	litReturns := map[*ast.ReturnStmt]bool{}
	ast.Inspect(decl.Body, func(n ast.Node) bool {
		if lit, ok := n.(*ast.FuncLit); ok {
			ast.Inspect(lit.Body, func(m ast.Node) bool {
				if r, ok := m.(*ast.ReturnStmt); ok {
					litReturns[r] = true
				}
				return true
			})
		}
		return true
	})

	w := &taintWalk{
		pass:         pass,
		params:       params,
		namedResults: namedResults,
		litReturns:   litReturns,
		tainted:      map[*types.Var]string{},
		fnVals:       map[*types.Var]string{},
	}
	walk := func() { ast.Inspect(decl.Body, func(n ast.Node) bool { w.visit(n); return true }) }
	// Flow-insensitive: iterate the statement walk until the taint
	// sets stop growing, so assignments later in the body reach uses
	// earlier in it (loops).
	for {
		before := len(w.tainted) + len(w.fnVals)
		walk()
		if len(w.tainted)+len(w.fnVals) == before {
			break
		}
	}
	if report {
		w.report = true
		walk()
		return false
	}

	run, changed := pass.run, false
	if w.retVia != "" && run.nondet[obj] == "" {
		run.nondet[obj] = w.retVia
		changed = true
	}
	for i, sink := range w.sinkParams {
		if run.sinks[obj] == nil {
			run.sinks[obj] = map[int]string{}
		}
		if run.sinks[obj][i] == "" {
			run.sinks[obj][i] = sink
			changed = true
		}
	}
	return changed
}

type taintWalk struct {
	pass         *Pass
	report       bool // emit diagnostics; summaries are stable
	params       map[*types.Var]int
	namedResults []*types.Var
	litReturns   map[*ast.ReturnStmt]bool
	tainted      map[*types.Var]string // var -> root source
	fnVals       map[*types.Var]string // var holds a nondet-producing func value
	retVia       string
	sinkParams   map[int]string
}

func (w *taintWalk) visit(n ast.Node) {
	switch s := n.(type) {
	case *ast.AssignStmt:
		w.assign(s.Lhs, s.Rhs)
	case *ast.ValueSpec:
		lhs := make([]ast.Expr, len(s.Names))
		for i, id := range s.Names {
			lhs[i] = id
		}
		w.assign(lhs, s.Values)
	case *ast.RangeStmt:
		if via := w.exprVia(s.X); via != "" {
			w.taintExpr(s.Key, via)
			w.taintExpr(s.Value, via)
		}
	case *ast.SendStmt:
		if via := w.exprVia(s.Value); via != "" {
			w.taintExpr(s.Chan, via)
		}
	case *ast.ReturnStmt:
		if w.litReturns[s] || w.retVia != "" {
			return
		}
		for _, r := range s.Results {
			if via := w.exprVia(r); via != "" {
				w.retVia = via
				return
			}
		}
		if len(s.Results) == 0 {
			for _, v := range w.namedResults {
				if via := w.tainted[v]; via != "" {
					w.retVia = via
					return
				}
			}
		}
	case *ast.CallExpr:
		w.call(s)
	}
}

// assign propagates taint and func-value taint from RHS to LHS.
func (w *taintWalk) assign(lhs, rhs []ast.Expr) {
	if len(rhs) == 0 {
		return
	}
	if len(lhs) == len(rhs) {
		for i := range lhs {
			if via := w.exprVia(rhs[i]); via != "" {
				w.taintExpr(lhs[i], via)
			}
			if via := w.fnValVia(rhs[i]); via != "" {
				w.markFnVal(lhs[i], via)
			}
		}
		return
	}
	// Tuple assignment: one RHS feeds every LHS.
	if via := w.exprVia(rhs[0]); via != "" {
		for _, l := range lhs {
			w.taintExpr(l, via)
		}
	}
}

// taintExpr marks the root identifier of an assignable expression
// (x, x.f, x[i], *x) as tainted.
func (w *taintWalk) taintExpr(e ast.Expr, via string) {
	for {
		switch t := e.(type) {
		case *ast.ParenExpr:
			e = t.X
		case *ast.SelectorExpr:
			e = t.X
		case *ast.IndexExpr:
			e = t.X
		case *ast.StarExpr:
			e = t.X
		case *ast.Ident:
			if v, ok := w.pass.TypesInfo.ObjectOf(t).(*types.Var); ok {
				if _, isParam := w.params[v]; !isParam && w.tainted[v] == "" {
					w.tainted[v] = via
				}
			}
			return
		default:
			return
		}
	}
}

func (w *taintWalk) markFnVal(e ast.Expr, via string) {
	if id, ok := e.(*ast.Ident); ok {
		if v, ok := w.pass.TypesInfo.ObjectOf(id).(*types.Var); ok && w.fnVals[v] == "" {
			w.fnVals[v] = via
		}
	}
}

// exprVia reports the root source if any value flowing out of e is
// tainted: a tainted variable, a call to a source, a call to a
// function summarized as nondeterministic, or a call through a variable
// holding a nondeterministic func value.
func (w *taintWalk) exprVia(e ast.Expr) string {
	if e == nil {
		return ""
	}
	via := ""
	ast.Inspect(e, func(n ast.Node) bool {
		if via != "" {
			return false
		}
		switch t := n.(type) {
		case *ast.FuncLit:
			return false // a func value is not itself a tainted value
		case *ast.Ident:
			if v, ok := w.pass.TypesInfo.Uses[t].(*types.Var); ok {
				if s := w.tainted[v]; s != "" {
					via = s
				}
			}
		case *ast.CallExpr:
			if s := w.callVia(t); s != "" {
				via = s
			}
		}
		return via == ""
	})
	return via
}

// callVia reports the root source if the call's results are
// nondeterministic.
func (w *taintWalk) callVia(call *ast.CallExpr) string {
	if callee := w.pass.callee(call); callee != nil {
		return w.funcVia(callee)
	}
	// Dynamic call through a func-valued variable.
	if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok {
		if v, ok := w.pass.TypesInfo.Uses[id].(*types.Var); ok {
			return w.fnVals[v]
		}
	}
	return ""
}

// funcVia reports the root source behind fn's results: fn is a source
// itself, or a module function summarized as returning one.
func (w *taintWalk) funcVia(fn *types.Func) string {
	if via, _, ok := sourceFunc(fn); ok {
		return via
	}
	return w.pass.run.nondet[fn]
}

// fnValVia reports the root source if e is a reference (not a call)
// to a nondeterministic function: a source func, a summarized module
// func, or a func literal that reads a source.
func (w *taintWalk) fnValVia(e ast.Expr) string {
	switch t := ast.Unparen(e).(type) {
	case *ast.Ident:
		if fn, ok := w.pass.TypesInfo.Uses[t].(*types.Func); ok {
			return w.funcVia(fn)
		}
	case *ast.SelectorExpr:
		if fn, ok := w.pass.TypesInfo.Uses[t.Sel].(*types.Func); ok {
			return w.funcVia(fn)
		}
	case *ast.FuncLit:
		via := ""
		ast.Inspect(t.Body, func(n ast.Node) bool {
			if via != "" {
				return false
			}
			if call, ok := n.(*ast.CallExpr); ok {
				if callee := w.pass.callee(call); callee != nil {
					if s, _, ok := sourceFunc(callee); ok {
						via = s
					}
				}
			}
			return via == ""
		})
		return via
	}
	return ""
}

// call handles sink detection, summary propagation, and (on the
// reporting pass) the three diagnostic classes.
func (w *taintWalk) call(call *ast.CallExpr) {
	pass := w.pass
	callee := pass.callee(call)
	if callee == nil {
		return
	}

	// Direct sink method or a callee summarized as forwarding
	// parameters to one.
	direct, isSink := sinkMethod(callee)
	forwards := pass.run.sinks[callee]
	for i, arg := range call.Args {
		if isSink {
			w.sinkArg(arg, direct)
		} else if sink := forwards[i]; sink != "" {
			w.sinkArg(arg, sink)
		}
	}

	if !w.report || !InDeterministicPackage(pass.Pkg.Path()) {
		return
	}
	// Cross-package call to a function whose results are
	// host-derived. In-package roots are reported by wallclock /
	// rawrand / the hostState class, so the chain is not re-reported
	// link by link.
	if callee.Pkg() != nil && callee.Pkg() != pass.Pkg {
		if via := pass.run.nondet[callee]; via != "" {
			pass.Reportf(call.Pos(),
				"call to %s returns a host-derived value (via %s) inside deterministic package %s; derive it from simulation state or pass it in as configuration",
				path.Base(callee.Pkg().Path())+"."+callee.Name(), via, pass.Pkg.Path())
		}
	}
	if via, tier, ok := sourceFunc(callee); ok && tier == hostState {
		pass.Reportf(call.Pos(),
			"%s reads host state inside deterministic package %s; pass the value in as explicit configuration",
			via, pass.Pkg.Path())
	}
}

// sinkArg handles one argument position of a sink call: report taint
// flowing in, and record parameters of the enclosing function that
// flow through so callers are checked too.
func (w *taintWalk) sinkArg(arg ast.Expr, sink string) {
	if via := w.exprVia(arg); via != "" && w.report {
		w.pass.Reportf(arg.Pos(),
			"nondeterministic value (via %s) flows into %s; deterministic records must carry only simulation-derived values",
			via, sink)
	}
	ast.Inspect(arg, func(n ast.Node) bool {
		id, ok := n.(*ast.Ident)
		if !ok {
			return true
		}
		if v, ok := w.pass.TypesInfo.Uses[id].(*types.Var); ok {
			if i, isParam := w.params[v]; isParam {
				if w.sinkParams == nil {
					w.sinkParams = map[int]string{}
				}
				if w.sinkParams[i] == "" {
					w.sinkParams[i] = sink
				}
			}
		}
		return true
	})
}

// sinkMethod reports whether fn is a deterministic-record sink
// method, with a printable name.
func sinkMethod(fn *types.Func) (string, bool) {
	tn := recvTypeName(fn)
	if tn == nil || tn.Pkg() == nil {
		return "", false
	}
	name := fmt.Sprintf("(%s.%s).%s", path.Base(tn.Pkg().Path()), tn.Name(), fn.Name())
	// Module-local observer interfaces: any On* method counts, so the
	// core dispatch path (which records through an interface) is
	// covered without naming the concrete recorder.
	if types.IsInterface(tn.Type()) {
		return name, strings.HasPrefix(tn.Pkg().Path(), "repro/") && strings.HasPrefix(fn.Name(), "On")
	}
	methods, listed := detflowSinkMethods[[2]string{tn.Pkg().Path(), tn.Name()}]
	if listed && methods == nil {
		return name, strings.HasPrefix(fn.Name(), "On")
	}
	return name, methods[fn.Name()]
}
