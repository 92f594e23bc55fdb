// Package analysis is a dependency-free reimplementation of the
// golang.org/x/tools/go/analysis vocabulary, sized for this
// repository. It exists because the reproduction's whole claim rests
// on the simulator being exactly deterministic (DESIGN.md §1), and
// determinism is the kind of invariant that conventions cannot hold:
// one `range` over a map in the dispatch path silently invalidates
// every recorded trace. The analyzers in this package — maporder,
// wallclock, rawrand, tickunits, hotalloc — mechanically enforce the
// invariants documented in docs/DETERMINISM.md and the hot-path
// allocation budget documented in docs/PERFORMANCE.md. They are driven
// by cmd/rdlint (`go run ./cmd/rdlint ./...`).
//
// The API mirrors go/analysis (Analyzer, Pass, Diagnostic) so that a
// future PR can swap in the real module unchanged once the build
// environment vendors golang.org/x/tools; analyzers only use the
// subset reimplemented here.
package analysis

import (
	"fmt"
	"go/ast"
	"go/printer"
	"go/token"
	"go/types"
	"path/filepath"
	"strings"
)

// Analyzer describes one static check.
type Analyzer struct {
	// Name identifies the analyzer in diagnostics and in
	// //rdlint:allow waiver directives.
	Name string

	// Doc is the analyzer's help text; the first line is a summary.
	Doc string

	// Run applies the analyzer to a package.
	Run func(*Pass) error

	// Finish, when non-nil, runs once after every package of a fleet
	// run has been analyzed, with the full fact store — the hook for
	// whole-program aggregation such as rngstream's stream-ID
	// collision check.
	Finish func(*FleetPass) error
}

// Pass provides one analyzer's view of one package.
type Pass struct {
	Analyzer  *Analyzer
	Fset      *token.FileSet
	Files     []*ast.File
	Pkg       *types.Package
	TypesInfo *types.Info

	// report receives diagnostics after waiver filtering.
	report func(Diagnostic)

	// waivers holds the parsed //rdlint: directives of this package.
	// The driver shares one set across the analyzers of a package so
	// suppression hits can be audited; the lazy fallback covers
	// direct single-analyzer Run calls.
	waivers *waiverSet

	// store receives exported facts and serves imports.
	store *FactStore
}

// Diagnostic is one finding.
type Diagnostic struct {
	Pos      token.Pos
	Message  string
	Analyzer string
}

// Reportf reports a finding at pos unless a waiver directive covers
// it. A waiver without a written reason does not suppress — it is
// converted into its own finding, so every waiver in the tree carries
// a justification.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	if p.waivers == nil {
		p.waivers = parseWaivers(p.Fset, p.Files)
	}
	position := p.Fset.Position(pos)
	switch p.waivers.status(p.Analyzer.Name, position) {
	case waived:
		return
	case waivedNoReason:
		p.report(Diagnostic{
			Pos:      pos,
			Analyzer: p.Analyzer.Name,
			Message:  "rdlint waiver is missing a reason; write //rdlint:" + directiveVerb(p.Analyzer.Name) + " <why this site is safe>",
		})
		return
	}
	p.report(Diagnostic{
		Pos:      pos,
		Analyzer: p.Analyzer.Name,
		Message:  fmt.Sprintf(format, args...),
	})
}

// IsTestFile reports whether the file containing pos is a _test.go
// file. The analyzers check simulation code, not tests: test files may
// range maps and read the host clock without perturbing recorded
// simulation trajectories.
func (p *Pass) IsTestFile(pos token.Pos) bool {
	return strings.HasSuffix(p.Fset.Position(pos).Filename, "_test.go")
}

// SkipFile reports whether the analyzers should skip f entirely:
// _test.go files (order/clock freedoms there cannot perturb recorded
// trajectories) and generated files (their upstream generator, not the
// checked-in artifact, is where a finding would have to be fixed; the
// generator's inputs are linted instead).
func (p *Pass) SkipFile(f *ast.File) bool {
	return p.IsTestFile(f.Pos()) || IsGenerated(f)
}

// IsGenerated reports whether f carries the standard Go generated-code
// marker: a "// Code generated ... DO NOT EDIT." comment line before
// the package clause.
func IsGenerated(f *ast.File) bool {
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

// --- deterministic package gate ---

// DeterministicPackages lists the import paths whose code runs inside
// the virtual-time simulation and therefore must be exactly
// reproducible (see docs/DETERMINISM.md). Sub-packages are included.
// cmd/rdbench is in: its output is a pure function of the source,
// pinned byte for byte by cmd/rdbench/testdata/rdbench.golden.
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

type waiverKey struct {
	analyzer string
	file     string
	line     int
}

type waiverSet struct {
	// reasons maps a directive site to its reason text ("" = missing).
	reasons map[waiverKey]string
	// pos maps a directive site to the directive comment's position,
	// for the staleness audit's diagnostics.
	pos map[waiverKey]token.Pos
	// hits records directives that suppressed at least one diagnostic
	// this run; the rest are stale and reported by the waiver audit.
	hits map[waiverKey]bool
}

// directiveVerb returns the waiver verb suggested for an analyzer in
// diagnostics: maporder has the dedicated historical verb.
func directiveVerb(analyzer string) string {
	if analyzer == "maporder" {
		return "ordered-ok"
	}
	return "allow " + analyzer
}

func parseWaivers(fset *token.FileSet, files []*ast.File) *waiverSet {
	ws := &waiverSet{
		reasons: make(map[waiverKey]string),
		pos:     make(map[waiverKey]token.Pos),
		hits:    make(map[waiverKey]bool),
	}
	for _, f := range files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				text, ok := strings.CutPrefix(c.Text, "//rdlint:")
				if !ok {
					continue
				}
				pos := fset.Position(c.Pos())
				var analyzer, reason string
				switch {
				case strings.HasPrefix(text, "ordered-ok"):
					analyzer = "maporder"
					reason = strings.TrimPrefix(text, "ordered-ok")
				case strings.HasPrefix(text, "allow"):
					rest := strings.TrimSpace(strings.TrimPrefix(text, "allow"))
					analyzer, reason, _ = strings.Cut(rest, " ")
				default:
					continue
				}
				if analyzer == "" {
					continue
				}
				k := waiverKey{analyzer: analyzer, file: pos.Filename, line: pos.Line}
				ws.reasons[k] = strings.TrimSpace(reason)
				ws.pos[k] = c.Pos()
			}
		}
	}
	return ws
}

func (ws *waiverSet) status(analyzer string, pos token.Position) waiverStatus {
	for _, line := range []int{pos.Line, pos.Line - 1} {
		k := waiverKey{analyzer: analyzer, file: pos.Filename, line: line}
		if reason, ok := ws.reasons[k]; ok {
			ws.hits[k] = true
			if reason == "" {
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

// Unit is one typechecked package queued for a fleet run.
type Unit struct {
	Files     []*ast.File
	Pkg       *types.Package
	TypesInfo *types.Info

	// Report controls whether this unit's diagnostics are returned.
	// Dependency packages loaded only so their facts exist run with
	// Report false: their findings belong to a run that names them.
	Report bool
}

// RunOptions configures a fleet run.
type RunOptions struct {
	// Audit enables the stale-waiver audit over the reported units.
	// Only meaningful when the full analyzer suite runs: a directive
	// is judged stale because no analyzer fired against it.
	Audit bool
}

// RunUnits applies the analyzers to the units in order (callers
// provide dependency order so facts exist before their importers
// need them), runs the fleet-wide Finish hooks, optionally audits
// waivers, and returns the surviving diagnostics sorted by position.
func RunUnits(fset *token.FileSet, units []*Unit, analyzers []*Analyzer, opts RunOptions) ([]Diagnostic, error) {
	store := NewFactStore()
	var diags []Diagnostic
	waivers := make([]*waiverSet, len(units))
	for i, u := range units {
		ws := parseWaivers(fset, u.Files)
		waivers[i] = ws
		for _, a := range analyzers {
			pass := &Pass{
				Analyzer:  a,
				Fset:      fset,
				Files:     u.Files,
				Pkg:       u.Pkg,
				TypesInfo: u.TypesInfo,
				waivers:   ws,
				store:     store,
			}
			if u.Report {
				pass.report = func(d Diagnostic) { diags = append(diags, d) }
			} else {
				pass.report = func(Diagnostic) {}
			}
			if err := a.Run(pass); err != nil {
				return nil, fmt.Errorf("%s: %w", a.Name, err)
			}
		}
	}

	for _, a := range analyzers {
		if a.Finish == nil {
			continue
		}
		fp := &FleetPass{
			Analyzer: a,
			Fset:     fset,
			store:    store,
			report: func(d Diagnostic) {
				// Fleet findings honor the same inline waivers as
				// per-package ones; the directive lives in whichever
				// package owns the reported position.
				position := fset.Position(d.Pos)
				for _, ws := range waivers {
					switch ws.status(a.Name, position) {
					case waived:
						return
					case waivedNoReason:
						diags = append(diags, Diagnostic{
							Pos:      d.Pos,
							Analyzer: a.Name,
							Message:  "rdlint waiver is missing a reason; write //rdlint:" + directiveVerb(a.Name) + " <why this site is safe>",
						})
						return
					}
				}
				diags = append(diags, d)
			},
		}
		if err := a.Finish(fp); err != nil {
			return nil, fmt.Errorf("%s (finish): %w", a.Name, err)
		}
	}

	if opts.Audit {
		known := make(map[string]bool, len(analyzers))
		for _, a := range analyzers {
			known[a.Name] = true
		}
		for i, u := range units {
			if !u.Report {
				continue
			}
			for k := range waivers[i].reasons {
				if waivers[i].hits[k] {
					continue
				}
				pos := waivers[i].pos[k]
				if !known[k.analyzer] {
					diags = append(diags, Diagnostic{
						Pos:      pos,
						Analyzer: WaiverAuditName,
						Message:  fmt.Sprintf("waiver names unknown analyzer %q; rdlint analyzers are listed in docs/LINTING.md", k.analyzer),
					})
					continue
				}
				diags = append(diags, Diagnostic{
					Pos:      pos,
					Analyzer: WaiverAuditName,
					Message:  fmt.Sprintf("stale waiver: %s no longer fires at this site; delete the //rdlint:%s directive", k.analyzer, directiveVerb(k.analyzer)),
				})
			}
		}
	}

	sortDiagnostics(fset, diags)
	return diags, nil
}

func sortDiagnostics(fset *token.FileSet, diags []Diagnostic) {
	// Insertion sort by (file, offset, analyzer); n is small.
	less := func(a, b Diagnostic) bool {
		pa, pb := fset.Position(a.Pos), fset.Position(b.Pos)
		if pa.Filename != pb.Filename {
			return pa.Filename < pb.Filename
		}
		if pa.Offset != pb.Offset {
			return pa.Offset < pb.Offset
		}
		return a.Analyzer < b.Analyzer
	}
	for i := 1; i < len(diags); i++ {
		for j := i; j > 0 && less(diags[j], diags[j-1]); j-- {
			diags[j], diags[j-1] = diags[j-1], diags[j]
		}
	}
}

// FileBase returns the base name of the file containing pos.
func FileBase(fset *token.FileSet, pos token.Pos) string {
	return filepath.Base(fset.Position(pos).Filename)
}
