package analysis

import (
	"fmt"
	"go/ast"
	"go/types"
	"sort"
	"strings"
)

// detflow: interprocedural taint analysis from nondeterministic host
// sources (wall clock, raw rand, environment, process state) to the
// deterministic record sinks (trace.Recorder observer methods,
// telemetry spans and metrics). Function summaries are exported as
// facts, so taint crosses package boundaries: a cmd helper that
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
//     rawrand / the R3 class below);
//   - a deterministic package reading host state directly via
//     sources outside wallclock/rawrand's beat, e.g. os.Getenv
//     ("reads host state").
//
// Known holes, by design: taint through interfaces other than
// module-local On* observer interfaces, through struct fields across
// function boundaries, and through channels between goroutines is
// not tracked. runtime.GOMAXPROCS/NumCPU are taint-only sources:
// bounding a worker pool with them is fine (sweep does), recording
// them into a deterministic artifact is not.

// NondetFact marks a function whose results derive from a
// nondeterministic host source. Via names the root source.
type NondetFact struct {
	Via string
}

// AFact marks NondetFact as a fact type.
func (*NondetFact) AFact() {}

// SinkParamsFact marks a function that forwards the listed parameter
// indices into a deterministic record sink.
type SinkParamsFact struct {
	Params []int
	Sink   string
}

// AFact marks SinkParamsFact as a fact type.
func (*SinkParamsFact) AFact() {}

// DetFlow reports nondeterministic host values flowing into
// deterministic records, across function and package boundaries.
var DetFlow = &Analyzer{
	Name: "detflow",
	Doc: "trace nondeterministic host values into deterministic records\n\n" +
		"Interprocedural taint from host sources (time.Now, math/rand, os.Getenv,\n" +
		"runtime.NumCPU, ...) to deterministic sinks (trace.Recorder observers,\n" +
		"telemetry spans/counters/gauges/histograms and EventLog). Function\n" +
		"summaries travel as facts, so the flow is caught even when source and sink\n" +
		"live in different packages.",
	Run: runDetFlow,
}

// source tiers: hostState sources are themselves diagnostics when
// called directly in a deterministic package; taintOnly sources are
// legitimate to call (or already policed by wallclock/rawrand) but
// their results must not reach a sink or a return value that does.
type srcTier int

const (
	taintOnly srcTier = iota
	hostState
)

// detflowSources maps package path -> function name -> tier.
// Everything in math/rand and math/rand/v2 is additionally a
// taint-only source (rawrand polices the import itself).
var detflowSources = map[string]map[string]srcTier{
	"time": {
		"Now": taintOnly, "Since": taintOnly, "Until": taintOnly,
	},
	"os": {
		"Getenv": hostState, "LookupEnv": hostState, "Environ": hostState,
		"Getpid": hostState, "Getppid": hostState, "Hostname": hostState,
		"Getwd": hostState,
	},
	"runtime": {
		"NumCPU": taintOnly, "NumGoroutine": taintOnly, "GOMAXPROCS": taintOnly,
	},
	"crypto/rand": {
		"Read": hostState, "Int": hostState, "Prime": hostState,
	},
}

// detflowSinkMethods lists sink receiver types (package path, type
// name) and the methods whose arguments become part of a
// deterministic record. A nil set means "every method whose name
// starts with On" (the observer-callback convention).
var detflowSinkMethods = map[[2]string]map[string]bool{
	{"repro/internal/trace", "Recorder"}: nil,
	{"repro/internal/telemetry", "Spans"}: {
		"Begin": true, "End": true, "Complete": true, "Instant": true,
	},
	{"repro/internal/telemetry", "Counter"}:   {"Add": true},
	{"repro/internal/telemetry", "Gauge"}:     {"Set": true},
	{"repro/internal/telemetry", "Histogram"}: {"Observe": true},
	{"repro/internal/telemetry", "EventLog"}:  {"Record": true},
}

func runDetFlow(pass *Pass) error {
	// Summaries are computed for module packages only: summarizing
	// a stdlib package would let coarse taint cascade through the
	// standard library (runtime.GOMAXPROCS is a source, and the
	// flow-insensitive walk would taint half of fmt with it).
	// Stdlib nondeterminism enters the module only through the
	// explicit source list.
	if !isModulePath(pass.Pkg.Path()) {
		return nil
	}
	st := &detflowState{
		pass:   pass,
		nondet: map[*types.Func]string{},
		sinks:  map[*types.Func]map[int]string{},
	}
	var fns []*ast.FuncDecl
	for _, f := range pass.Files {
		if pass.SkipFile(f) {
			continue
		}
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
			if st.analyzeFn(fn, false) {
				changed = true
			}
		}
		if !changed {
			break
		}
	}
	// Reporting pass over the stable summaries.
	for _, fn := range fns {
		st.analyzeFn(fn, true)
	}
	// Export summaries for importers.
	for obj, via := range st.nondet {
		pass.ExportObjectFact(obj, &NondetFact{Via: via})
	}
	for obj, params := range st.sinks {
		fact := &SinkParamsFact{}
		for i, sink := range params {
			fact.Params = append(fact.Params, i)
			if fact.Sink == "" || sink < fact.Sink {
				fact.Sink = sink
			}
		}
		sort.Ints(fact.Params)
		pass.ExportObjectFact(obj, fact)
	}
	return nil
}

type detflowState struct {
	pass   *Pass
	nondet map[*types.Func]string         // fn -> root source of a tainted return
	sinks  map[*types.Func]map[int]string // fn -> param index -> sink name
}

// analyzeFn runs the flow-insensitive taint walk over one function.
// With report=false it only updates summaries and reports whether
// they changed; with report=true it emits diagnostics against the
// stable summaries.
func (st *detflowState) analyzeFn(decl *ast.FuncDecl, report bool) bool {
	pass := st.pass
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
		st:      st,
		fn:      obj,
		params:  params,
		tainted: map[*types.Var]string{},
		fnVals:  map[*types.Var]string{},
	}
	// Flow-insensitive: iterate the statement walk until the taint
	// sets stop growing, so assignments later in the body reach uses
	// earlier in it (loops).
	for {
		before := len(w.tainted) + len(w.fnVals)
		ast.Inspect(decl.Body, func(n ast.Node) bool { w.visit(n, false, litReturns, namedResults); return true })
		if len(w.tainted)+len(w.fnVals) == before {
			break
		}
	}
	if report {
		ast.Inspect(decl.Body, func(n ast.Node) bool { w.visit(n, true, litReturns, namedResults); return true })
		return false
	}

	changed := false
	if w.retVia != "" && st.nondet[obj] == "" {
		st.nondet[obj] = w.retVia
		changed = true
	}
	for i, sink := range w.sinkParams {
		if st.sinks[obj] == nil {
			st.sinks[obj] = map[int]string{}
		}
		if st.sinks[obj][i] == "" {
			st.sinks[obj][i] = sink
			changed = true
		}
	}
	return changed
}

type taintWalk struct {
	st         *detflowState
	fn         *types.Func
	params     map[*types.Var]int
	tainted    map[*types.Var]string // var -> root source
	fnVals     map[*types.Var]string // var holds a nondet-producing func value
	retVia     string
	sinkParams map[int]string
}

func (w *taintWalk) visit(n ast.Node, report bool, litReturns map[*ast.ReturnStmt]bool, namedResults []*types.Var) {
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
		if litReturns[s] {
			return
		}
		if w.retVia != "" {
			return
		}
		for _, r := range s.Results {
			if via := w.exprVia(r); via != "" {
				w.retVia = via
				return
			}
		}
		if len(s.Results) == 0 {
			for _, v := range namedResults {
				if via := w.tainted[v]; via != "" {
					w.retVia = via
					return
				}
			}
		}
	case *ast.CallExpr:
		w.call(s, report)
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
			if v, ok := w.st.pass.TypesInfo.ObjectOf(t).(*types.Var); ok {
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
		if v, ok := w.st.pass.TypesInfo.ObjectOf(id).(*types.Var); ok && w.fnVals[v] == "" {
			w.fnVals[v] = via
		}
	}
}

// exprVia reports the root source if any value flowing out of e is
// tainted: a tainted variable, a call to a source, a call to a
// function with a NondetFact summary, or a call through a variable
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
			if v, ok := w.st.pass.TypesInfo.Uses[t].(*types.Var); ok {
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
	if callee := w.st.calleeFunc(call); callee != nil {
		if via, _, ok := sourceFunc(callee); ok {
			return via
		}
		return w.st.nondetViaFor(callee)
	}
	// Dynamic call through a func-valued variable.
	if id, ok := unparen(call.Fun).(*ast.Ident); ok {
		if v, ok := w.st.pass.TypesInfo.Uses[id].(*types.Var); ok {
			return w.fnVals[v]
		}
	}
	return ""
}

// fnValVia reports the root source if e is a reference (not a call)
// to a nondeterministic function: a source func, a module func with a
// NondetFact, or a func literal that reads a source.
func (w *taintWalk) fnValVia(e ast.Expr) string {
	switch t := unparen(e).(type) {
	case *ast.Ident, *ast.SelectorExpr:
		var obj types.Object
		if id, ok := t.(*ast.Ident); ok {
			obj = w.st.pass.TypesInfo.Uses[id]
		} else {
			obj = w.st.pass.TypesInfo.Uses[t.(*ast.SelectorExpr).Sel]
		}
		if fn, ok := obj.(*types.Func); ok {
			if via, _, ok := sourceFunc(fn); ok {
				return via
			}
			return w.st.nondetViaFor(fn)
		}
	case *ast.FuncLit:
		via := ""
		ast.Inspect(t.Body, func(n ast.Node) bool {
			if via != "" {
				return false
			}
			if call, ok := n.(*ast.CallExpr); ok {
				if callee := w.st.calleeFunc(call); callee != nil {
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
func (w *taintWalk) call(call *ast.CallExpr, report bool) {
	pass := w.st.pass
	callee := w.st.calleeFunc(call)
	if callee == nil {
		return
	}

	// Direct sink method or a callee summarized as forwarding
	// parameters to one.
	if sink, ok := sinkMethod(callee); ok {
		for _, arg := range call.Args {
			w.sinkArg(arg, sink, report)
		}
	} else if fact := w.st.sinkParamsFor(callee); fact != nil {
		for _, i := range fact.Params {
			if i < len(call.Args) {
				w.sinkArg(call.Args[i], fact.Sink, report)
			}
		}
	}

	if !report {
		return
	}
	det := InDeterministicPackage(pass.Pkg.Path())
	if !det {
		return
	}
	// Cross-package call to a function whose results are
	// host-derived. In-package roots are reported by wallclock /
	// rawrand / the hostState class, so the chain is not re-reported
	// link by link.
	if callee.Pkg() != nil && callee.Pkg() != pass.Pkg {
		if via := w.st.nondetViaFor(callee); via != "" {
			pass.Reportf(call.Pos(),
				"call to %s returns a host-derived value (via %s) inside deterministic package %s; derive it from simulation state or pass it in as configuration",
				qualifiedName(callee), via, pass.Pkg.Path())
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
func (w *taintWalk) sinkArg(arg ast.Expr, sink string, report bool) {
	if via := w.exprVia(arg); via != "" && report {
		w.st.pass.Reportf(arg.Pos(),
			"nondeterministic value (via %s) flows into %s; deterministic records must carry only simulation-derived values",
			via, sink)
	}
	ast.Inspect(arg, func(n ast.Node) bool {
		id, ok := n.(*ast.Ident)
		if !ok {
			return true
		}
		if v, ok := w.st.pass.TypesInfo.Uses[id].(*types.Var); ok {
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

// --- lookups ---

// calleeFunc resolves the statically-known callee of a call, or nil
// for dynamic calls and conversions.
func (st *detflowState) calleeFunc(call *ast.CallExpr) *types.Func {
	switch fun := unparen(call.Fun).(type) {
	case *ast.Ident:
		fn, _ := st.pass.TypesInfo.Uses[fun].(*types.Func)
		return fn
	case *ast.SelectorExpr:
		fn, _ := st.pass.TypesInfo.Uses[fun.Sel].(*types.Func)
		return fn
	}
	return nil
}

// isModulePath reports whether path belongs to this module — the
// only packages detflow summarizes or trusts facts about.
func isModulePath(path string) bool {
	return path == "repro" || strings.HasPrefix(path, "repro/")
}

// nondetViaFor consults the local summary for in-package functions
// and imported facts for everything else.
func (st *detflowState) nondetViaFor(fn *types.Func) string {
	if fn.Pkg() == nil || !isModulePath(fn.Pkg().Path()) {
		return ""
	}
	if fn.Pkg() == st.pass.Pkg {
		return st.nondet[fn]
	}
	var f NondetFact
	if st.pass.ImportObjectFact(fn, &f) {
		return f.Via
	}
	return ""
}

func (st *detflowState) sinkParamsFor(fn *types.Func) *SinkParamsFact {
	if fn.Pkg() == nil || !isModulePath(fn.Pkg().Path()) {
		return nil
	}
	if fn.Pkg() == st.pass.Pkg {
		params := st.sinks[fn]
		if len(params) == 0 {
			return nil
		}
		fact := &SinkParamsFact{}
		for i, sink := range params {
			fact.Params = append(fact.Params, i)
			if fact.Sink == "" {
				fact.Sink = sink
			}
		}
		sort.Ints(fact.Params)
		return fact
	}
	var f SinkParamsFact
	if st.pass.ImportObjectFact(fn, &f) {
		return &f
	}
	return nil
}

// sourceFunc reports whether fn is a nondeterminism source, with a
// printable name and its tier.
func sourceFunc(fn *types.Func) (via string, tier srcTier, ok bool) {
	pkg := fn.Pkg()
	if pkg == nil {
		return "", 0, false
	}
	path := pkg.Path()
	if path == "math/rand" || path == "math/rand/v2" {
		return path + "." + fn.Name(), taintOnly, true
	}
	if m, ok := detflowSources[path]; ok {
		if tier, ok := m[fn.Name()]; ok {
			return path + "." + fn.Name(), tier, true
		}
	}
	return "", 0, false
}

// sinkMethod reports whether fn is a deterministic-record sink
// method, with a printable name.
func sinkMethod(fn *types.Func) (string, bool) {
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return "", false
	}
	rt := sig.Recv().Type()
	if p, ok := rt.(*types.Pointer); ok {
		rt = p.Elem()
	}
	named, ok := rt.(*types.Named)
	if !ok {
		return "", false
	}
	tn := named.Obj()
	if tn.Pkg() == nil {
		return "", false
	}
	name := fmt.Sprintf("(%s.%s).%s", shortPath(tn.Pkg().Path()), tn.Name(), fn.Name())
	// Module-local observer interfaces: any On* method counts, so the
	// core dispatch path (which records through an interface) is
	// covered without naming the concrete recorder.
	if types.IsInterface(rt) {
		if strings.HasPrefix(tn.Pkg().Path(), "repro/") && strings.HasPrefix(fn.Name(), "On") {
			return name, true
		}
		return "", false
	}
	methods, listed := detflowSinkMethods[[2]string{tn.Pkg().Path(), tn.Name()}]
	if !listed {
		return "", false
	}
	if methods == nil {
		return name, strings.HasPrefix(fn.Name(), "On")
	}
	return name, methods[fn.Name()]
}

func qualifiedName(fn *types.Func) string {
	if fn.Pkg() == nil {
		return fn.Name()
	}
	return shortPath(fn.Pkg().Path()) + "." + fn.Name()
}

func shortPath(path string) string {
	if i := strings.LastIndex(path, "/"); i >= 0 {
		return path[i+1:]
	}
	return path
}

func unparen(e ast.Expr) ast.Expr {
	for {
		p, ok := e.(*ast.ParenExpr)
		if !ok {
			return e
		}
		e = p.X
	}
}
