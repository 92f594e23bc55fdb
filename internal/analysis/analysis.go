// Package analysis holds rdlint's analyzers: the static checks that
// keep this module exactly deterministic. The reproduction's whole
// claim rests on the simulator replaying byte for byte (DESIGN.md §1),
// and determinism is the kind of invariant that conventions cannot
// hold: one `range` over a map in the dispatch path silently
// invalidates every recorded trace. The analyzers listed in Analyzers
// mechanically enforce the rules of docs/DETERMINISM.md and the
// hot-path allocation budget of docs/PERFORMANCE.md; docs/LINTING.md
// catalogues them. They are driven by cmd/rdlint
// (`go run ./cmd/rdlint ./...`) and, over the live tree, by this
// package's own tests.
//
// One run typechecks every package once through one loader, so a
// function is the same *types.Func in its own package and in every
// importer: what one package's pass learns about it (detflow's
// summaries, rngstream's stream table) is kept in plain maps on the
// run and read directly by later passes.
package analysis

import (
	"fmt"
	"go/ast"
	"go/printer"
	"go/token"
	"go/types"
	"sort"
	"strings"

	"repro/internal/analysis/loader"
)

// Analyzer describes one static check.
type Analyzer struct {
	// Name identifies the analyzer in diagnostics and in
	// //rdlint:allow waiver directives.
	Name string

	// Doc is the one-line summary `rdlint help` prints; docs/LINTING.md
	// has the full description.
	Doc string

	// Run applies the analyzer to a package.
	Run func(*Pass)
}

// Pass provides one analyzer's view of one package.
type Pass struct {
	Analyzer  *Analyzer
	Fset      *token.FileSet
	Files     []*ast.File // the package's hand-written files; see isGenerated
	Pkg       *types.Package
	TypesInfo *types.Info

	// run is the whole-run state every pass of every package shares.
	run *run

	// reporting is false for a dependency analyzed only so its
	// summaries exist: its findings belong to a run that names it.
	reporting bool
}

// Diagnostic is one finding.
type Diagnostic struct {
	Pos      token.Pos
	Message  string
	Analyzer string
}

// run is the state of one RunUnits call.
type run struct {
	fset    *token.FileSet
	waivers waiverSet
	diags   []Diagnostic

	// detflow's function summaries, filled package by package in
	// dependency order: the root source behind a function's tainted
	// result, and the sink each parameter index is forwarded into.
	nondet map[*types.Func]string
	sinks  map[*types.Func]map[int]string

	// streams is rngstream's table of constant SplitSeed derivations,
	// in the order they were visited.
	streams []streamUse
}

// Reportf reports a finding at pos unless a waiver directive covers
// it.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	if p.reporting {
		p.run.reportf(p.Analyzer.Name, pos, format, args...)
	}
}

// reportf records a finding unless a waiver directive covers it. A
// waiver without a written reason does not suppress — it is converted
// into its own finding, so every waiver in the tree carries a
// justification.
func (r *run) reportf(analyzer string, pos token.Pos, format string, args ...any) {
	msg := fmt.Sprintf(format, args...)
	switch r.waivers.status(analyzer, r.fset.Position(pos)) {
	case waived:
		return
	case waivedNoReason:
		msg = "rdlint waiver is missing a reason; write //rdlint:" + directiveVerb(analyzer) + " <why this site is safe>"
	}
	r.diags = append(r.diags, Diagnostic{Pos: pos, Analyzer: analyzer, Message: msg})
}

// isGenerated reports whether f carries the standard Go generated-code
// marker: a "// Code generated ... DO NOT EDIT." comment line before
// the package clause. The driver keeps such files from the analyzers:
// their upstream generator, not the checked-in artifact, is where a
// finding would have to be fixed. (_test.go files never get this far:
// the loader does not read them, since order and clock freedoms in a
// test cannot perturb a recorded trajectory.)
func isGenerated(f *ast.File) bool {
	for _, cg := range f.Comments {
		if cg.Pos() >= f.Package {
			break
		}
		for _, c := range cg.List {
			if strings.HasPrefix(c.Text, "// Code generated ") && strings.HasSuffix(c.Text, " DO NOT EDIT.") {
				return true
			}
		}
	}
	return false
}

// ExprString renders an expression as compact source text, for
// structural comparison of small expressions (the maporder min/max
// justification) and for diagnostics.
func (p *Pass) ExprString(e ast.Expr) string {
	var b strings.Builder
	printer.Fprint(&b, p.Fset, e)
	return b.String()
}

// callee resolves the statically known function or method a call
// invokes, or nil for dynamic calls, conversions and builtins.
func (p *Pass) callee(call *ast.CallExpr) *types.Func {
	var id *ast.Ident
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		id = fun
	case *ast.SelectorExpr:
		id = fun.Sel
	default:
		return nil
	}
	fn, _ := p.TypesInfo.Uses[id].(*types.Func)
	return fn
}

// recvTypeName returns the named type fn is a method of (through a
// pointer receiver too), or nil for a plain function and for a method
// on an unnamed receiver.
func recvTypeName(fn *types.Func) *types.TypeName {
	recv := fn.Type().(*types.Signature).Recv()
	if recv == nil {
		return nil
	}
	t := recv.Type()
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	if named, ok := t.(*types.Named); ok {
		return named.Obj()
	}
	return nil
}

// isMethodOf reports whether fn is a method of the named type
// pkgPath.typeName — the one way the analyzers recognise the
// simulator's own API (sim.Kernel, telemetry.Spans, ...).
func isMethodOf(fn *types.Func, pkgPath, typeName string) bool {
	tn := recvTypeName(fn)
	return tn != nil && tn.Name() == typeName && tn.Pkg() != nil && tn.Pkg().Path() == pkgPath
}

// Analyzers is the full rdlint suite in reporting order.
var Analyzers = []*Analyzer{MapOrder, WallClock, RawRand, TickUnits, HotAlloc, RngStream, DetFlow, SpanPair, SharedCapture}

// --- deterministic package gate ---

// DeterministicPackages lists the import paths whose code runs inside
// the virtual-time simulation and therefore must be exactly
// reproducible (see docs/DETERMINISM.md). Sub-packages are included.
// cmd/rdbench is in: its output is a pure function of the source,
// pinned byte for byte by cmd/rdbench/testdata/rdbench.golden.
// internal/extclock is out: its §5.4 crystal drifts in float ppm, and
// rounding a float clock reading to ticks is what tickunits forbids.
var DeterministicPackages = []string{
	"repro/cmd/rdbench",
	"repro/internal/sim",
	"repro/internal/sched",
	"repro/internal/rm",
	"repro/internal/core",
	"repro/internal/policy",
	"repro/internal/baseline",
	"repro/internal/streamer",
	"repro/internal/sweep",
	"repro/internal/fault",
	"repro/internal/fleet",
	"repro/internal/invariant",
	"repro/internal/telemetry",
	"repro/internal/trace",
	"repro/internal/workload",
	"repro/internal/task",
	"repro/internal/ticks",
	"repro/internal/metrics",
}

// AdmissionPackages lists the packages whose arithmetic decides
// admission and grant computation, where the paper's exact
// schedulability boundary lives; float conversions of Ticks are
// forbidden there in favour of ticks.Frac.
var AdmissionPackages = []string{
	"repro/internal/rm",
	"repro/internal/policy",
}

// TicksPackage is the import path of the 27 MHz time base package.
const TicksPackage = "repro/internal/ticks"

// InDeterministicPackage reports whether path is one of (or nested
// under) the deterministic simulation packages.
func InDeterministicPackage(path string) bool { return underAny(path, DeterministicPackages) }

// InAdmissionPackage reports whether path carries admission/grant
// arithmetic.
func InAdmissionPackage(path string) bool { return underAny(path, AdmissionPackages) }

func underAny(path string, roots []string) bool {
	for _, r := range roots {
		if path == r || strings.HasPrefix(path, r+"/") {
			return true
		}
	}
	return false
}

// --- waiver directives ---

// Waivers are single-line comments of two forms:
//
//	//rdlint:ordered-ok <reason>      (maporder only)
//	//rdlint:allow <analyzer> <reason>
//
// placed on the flagged line or the line immediately above it. The
// reason is mandatory: a waiver with no reason is itself reported.
type waiverStatus int

const (
	notWaived waiverStatus = iota
	waived
	waivedNoReason
)

// waiverKey is a directive's site. The file name is part of it, so one
// set serves every package of a run.
type waiverKey struct {
	analyzer string
	file     string
	line     int
}

type waiver struct {
	reason string    // "" = missing
	pos    token.Pos // the directive comment, for the audit's diagnostics
	hit    bool      // suppressed at least one diagnostic this run
	audit  bool      // lies in a package this run reports on
}

type waiverSet map[waiverKey]*waiver

// directiveVerb returns the waiver verb suggested for an analyzer in
// diagnostics: maporder has the dedicated historical verb.
func directiveVerb(analyzer string) string {
	if analyzer == "maporder" {
		return "ordered-ok"
	}
	return "allow " + analyzer
}

// parse adds the //rdlint: directives of one package's files.
func (ws waiverSet) parse(fset *token.FileSet, files []*ast.File, audit bool) {
	for _, f := range files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				text, ok := strings.CutPrefix(c.Text, "//rdlint:")
				if !ok {
					continue
				}
				var analyzer, reason string
				switch {
				case strings.HasPrefix(text, "ordered-ok"):
					analyzer = "maporder"
					reason = strings.TrimPrefix(text, "ordered-ok")
				case strings.HasPrefix(text, "allow"):
					rest := strings.TrimSpace(strings.TrimPrefix(text, "allow"))
					analyzer, reason, _ = strings.Cut(rest, " ")
				}
				if analyzer == "" {
					continue
				}
				pos := fset.Position(c.Pos())
				ws[waiverKey{analyzer, pos.Filename, pos.Line}] = &waiver{
					reason: strings.TrimSpace(reason), pos: c.Pos(), audit: audit,
				}
			}
		}
	}
}

func (ws waiverSet) status(analyzer string, pos token.Position) waiverStatus {
	for _, line := range []int{pos.Line, pos.Line - 1} {
		if w, ok := ws[waiverKey{analyzer, pos.Filename, line}]; ok {
			w.hit = true
			if w.reason == "" {
				return waivedNoReason
			}
			return waived
		}
	}
	return notWaived
}

// --- driver ---

// WaiverAuditName is the pseudo-analyzer under which the driver
// reports stale or malformed //rdlint: directives. It is not an
// Analyzer in the list: the audit is a property of a whole run (a
// directive is stale only if nothing fired against it), so the driver
// performs it after the last pass.
const WaiverAuditName = "waiveraudit"

// RunUnits loads the packages at paths and everything in the module
// (or the loader's fixture root) they import, applies the analyzers
// to each — dependencies first, so a function's summary exists before
// its importers ask for it — then runs rngstream's whole-run collision
// check and, with audit set, the stale-waiver audit. Only the packages
// named by paths report and are audited; a collision is reported at
// every site it involves. audit is only meaningful with the full
// suite: a directive is judged stale because no analyzer fired
// against it. The diagnostics come back sorted by position.
func RunUnits(l *loader.Loader, paths []string, analyzers []*Analyzer, audit bool) ([]Diagnostic, error) {
	pkgs, err := l.DependencyOrder(paths)
	if err != nil {
		return nil, err
	}
	named := make(map[string]bool, len(paths))
	for _, p := range paths {
		named[p] = true
	}
	r := &run{
		fset:    l.Fset,
		waivers: waiverSet{},
		nondet:  map[*types.Func]string{},
		sinks:   map[*types.Func]map[int]string{},
	}
	for _, pkg := range pkgs {
		r.waivers.parse(l.Fset, pkg.Files, named[pkg.Path])
		var files []*ast.File
		for _, f := range pkg.Files {
			if !isGenerated(f) {
				files = append(files, f)
			}
		}
		for _, a := range analyzers {
			a.Run(&Pass{
				Analyzer:  a,
				Fset:      l.Fset,
				Files:     files,
				Pkg:       pkg.Types,
				TypesInfo: pkg.TypesInfo,
				run:       r,
				reporting: named[pkg.Path],
			})
		}
	}
	r.reportStreamCollisions()

	if audit {
		known := make(map[string]bool, len(analyzers))
		for _, a := range analyzers {
			known[a.Name] = true
		}
		for k, w := range r.waivers {
			if w.hit || !w.audit {
				continue
			}
			msg := fmt.Sprintf("stale waiver: %s no longer fires at this site; delete the //rdlint:%s directive", k.analyzer, directiveVerb(k.analyzer))
			if !known[k.analyzer] {
				msg = fmt.Sprintf("waiver names unknown analyzer %q; rdlint analyzers are listed in docs/LINTING.md", k.analyzer)
			}
			r.diags = append(r.diags, Diagnostic{Pos: w.pos, Analyzer: WaiverAuditName, Message: msg})
		}
	}

	sort.SliceStable(r.diags, func(i, j int) bool {
		a, b := r.diags[i], r.diags[j]
		pa, pb := l.Fset.Position(a.Pos), l.Fset.Position(b.Pos)
		if pa.Filename != pb.Filename {
			return pa.Filename < pb.Filename
		}
		if pa.Offset != pb.Offset {
			return pa.Offset < pb.Offset
		}
		return a.Analyzer < b.Analyzer
	})
	return r.diags, nil
}
