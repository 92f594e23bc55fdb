package analysis

import (
	"fmt"
	"go/token"
	"go/types"
	"reflect"
	"sort"
)

// A Fact is a per-function or per-package summary an analyzer exports
// while visiting one package and imports while visiting another. Facts
// are what turn the per-file syntax checks of rdlint v1 into
// cross-package dataflow analyses: detflow's "this function returns
// host-clock-derived data" and rngstream's "this package derives these
// SplitSeed substreams" both travel as facts.
//
// Fact types are pointers to structs; they live in the one in-process
// FactStore of a run.
type Fact interface {
	// AFact marks the type as a fact. It is never called.
	AFact()
}

// FactStore holds every fact exported during one fleet run, keyed by
// analyzer. One store is shared by all packages of a run, so facts
// exported while analyzing repro/internal/sim are visible while
// analyzing repro/internal/sweep — and, through the Finish hook, to
// fleet-wide aggregation passes after the last package.
type FactStore struct {
	// obj maps analyzer name → stable object key → fact.
	obj map[string]map[string]Fact
	// pkg maps analyzer name → package path → fact.
	pkg map[string]map[string]Fact
}

// NewFactStore returns an empty store.
func NewFactStore() *FactStore {
	return &FactStore{
		obj: make(map[string]map[string]Fact),
		pkg: make(map[string]map[string]Fact),
	}
}

// ObjectKey renders a stable key for a package-level object:
// "pkgpath.Name" for functions, vars and consts,
// "pkgpath.(Recv).Name" for methods. Objects without a package
// (builtins, locals the caller should not export facts on) key to "".
func ObjectKey(obj types.Object) string {
	if obj == nil || obj.Pkg() == nil {
		return ""
	}
	if fn, ok := obj.(*types.Func); ok {
		if sig, ok := fn.Type().(*types.Signature); ok && sig.Recv() != nil {
			t := sig.Recv().Type()
			if p, ok := t.(*types.Pointer); ok {
				t = p.Elem()
			}
			if named, ok := t.(*types.Named); ok {
				return fn.Pkg().Path() + ".(" + named.Obj().Name() + ")." + fn.Name()
			}
			return "" // method on an unnamed receiver; not exportable
		}
	}
	return obj.Pkg().Path() + "." + obj.Name()
}

func (s *FactStore) setObject(analyzer, key string, f Fact) {
	m := s.obj[analyzer]
	if m == nil {
		m = make(map[string]Fact)
		s.obj[analyzer] = m
	}
	m[key] = f
}

func (s *FactStore) setPackage(analyzer, path string, f Fact) {
	m := s.pkg[analyzer]
	if m == nil {
		m = make(map[string]Fact)
		s.pkg[analyzer] = m
	}
	m[path] = f
}

// copyFact copies the stored fact into the caller-provided pointer of
// the same concrete type, the analysistest-compatible import idiom.
func copyFact(stored, into Fact) bool {
	sv, iv := reflect.ValueOf(stored), reflect.ValueOf(into)
	if !sv.IsValid() || !iv.IsValid() || sv.Type() != iv.Type() || iv.Kind() != reflect.Pointer {
		return false
	}
	iv.Elem().Set(sv.Elem())
	return true
}

// --- Pass fact API ---

// ExportObjectFact associates fact with obj (a package-level function,
// method, var or const) for later packages and the Finish pass.
func (p *Pass) ExportObjectFact(obj types.Object, fact Fact) {
	key := ObjectKey(obj)
	if key == "" {
		return
	}
	p.store.setObject(p.Analyzer.Name, key, fact)
}

// ImportObjectFact copies the fact previously exported for obj into
// fact and reports whether one existed.
func (p *Pass) ImportObjectFact(obj types.Object, fact Fact) bool {
	stored, ok := p.store.obj[p.Analyzer.Name][ObjectKey(obj)]
	return ok && copyFact(stored, fact)
}

// ExportPackageFact associates fact with the package under analysis.
func (p *Pass) ExportPackageFact(fact Fact) {
	p.store.setPackage(p.Analyzer.Name, p.Pkg.Path(), fact)
}

// --- Finish (fleet) pass ---

// FleetPass is the view the Finish hook gets after every package has
// been analyzed: the full fact store, for cross-package aggregation
// that no single package's pass can do (rngstream's fleet-wide
// stream-ID collision check). Reported positions may lie in any
// analyzed package; waiver directives at those positions still apply.
type FleetPass struct {
	Analyzer *Analyzer
	Fset     *token.FileSet
	store    *FactStore
	report   func(Diagnostic)
}

// PackageFacts returns this analyzer's package facts in deterministic
// (path-sorted) order.
func (f *FleetPass) PackageFacts() []PackageFact {
	m := f.store.pkg[f.Analyzer.Name]
	paths := make([]string, 0, len(m))
	for p := range m {
		paths = append(paths, p)
	}
	sort.Strings(paths)
	out := make([]PackageFact, 0, len(paths))
	for _, p := range paths {
		out = append(out, PackageFact{Path: p, Fact: m[p]})
	}
	return out
}

// PackageFact pairs a package path with its exported fact.
type PackageFact struct {
	Path string
	Fact Fact
}

// Reportf reports a fleet-level finding at pos. Waiver filtering is
// applied by the driver, which knows every analyzed package's
// directives.
func (f *FleetPass) Reportf(pos token.Pos, format string, args ...any) {
	f.report(Diagnostic{
		Pos:      pos,
		Analyzer: f.Analyzer.Name,
		Message:  fmt.Sprintf(format, args...),
	})
}
