// Package atest is a small analysistest-style harness for the rdlint
// analyzers. Fixture packages live under a GOPATH-style testdata/src
// tree, named with real-looking import paths (e.g.
// testdata/src/repro/internal/sched/mofix) so the analyzers'
// deterministic-package gates apply to them exactly as they do to the
// live tree. Expected findings are written in the fixtures as
//
//	code() // want "regexp"
//
// comments, one or more quoted regexps per line, matched against the
// diagnostics the analyzer reports on that line.
package atest

import (
	"fmt"
	"go/token"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"sync"
	"testing"

	"repro/internal/analysis"
	"repro/internal/analysis/loader"
)

// expectation is one `// want "re"` clause.
type expectation struct {
	file    string
	line    int
	re      *regexp.Regexp
	matched bool
}

// Loaders are shared across Run calls keyed by their source roots:
// typechecking the standard library from GOROOT source is the
// dominant cost, and fixture packages never conflict (a fixture that
// shadows a module package shadows it for every test equally).
var (
	loaderMu sync.Mutex
	loaders  = map[string]*loader.Loader{}
)

func sharedLoader(t *testing.T, root, extraSrc string) *loader.Loader {
	t.Helper()
	loaderMu.Lock()
	defer loaderMu.Unlock()
	key := root + "\x00" + extraSrc
	if l, ok := loaders[key]; ok {
		return l
	}
	l, err := loader.New(root)
	if err != nil {
		t.Fatal(err)
	}
	l.ExtraSrc = extraSrc
	loaders[key] = l
	return l
}

// Run loads each fixture import path from testdata/src, applies the
// analyzer, and checks the diagnostics against the fixtures' want
// comments in both directions (missing and unexpected findings fail).
// It returns how many wants the analyzer satisfied.
//
// Each path is analyzed with its dependency closure — fixture helper
// packages under testdata/src are analyzed first — so cross-package
// summaries (detflow) and the whole-run stream collision check
// (rngstream) behave exactly as in `make lint`.
func Run(t *testing.T, testdata string, a *analysis.Analyzer, importPaths ...string) (matched int) {
	t.Helper()
	for _, path := range importPaths {
		matched += runOne(t, testdata, []*analysis.Analyzer{a}, false, path)
	}
	return matched
}

// RunSuite applies the full rdlint analyzer suite plus the
// stale-waiver audit to each fixture path — the harness for waiver
// fixtures, whose wants include `waiveraudit` findings.
func RunSuite(t *testing.T, testdata string, importPaths ...string) {
	t.Helper()
	for _, path := range importPaths {
		runOne(t, testdata, analysis.Analyzers, true, path)
	}
}

func runOne(t *testing.T, testdata string, analyzers []*analysis.Analyzer, audit bool, path string) (matched int) {
	t.Helper()
	root, err := loader.FindModuleRoot(".")
	if err != nil {
		t.Fatal(err)
	}
	extraSrc, err := filepath.Abs(filepath.Join(testdata, "src"))
	if err != nil {
		t.Fatal(err)
	}
	l := sharedLoader(t, root, extraSrc)
	diags, err := analysis.RunUnits(l, []string{path}, analyzers, audit)
	if err != nil {
		t.Fatalf("analyzers on %s: %v", path, err)
	}
	named, err := l.Load(path)
	if err != nil {
		t.Fatalf("load %s: %v", path, err)
	}
	// A stream collision is reported at every site, which may lie in a
	// dependency — a fixture stream constant colliding with another
	// package's reports both. The named package's findings are what the
	// fixture asserts; the rest belong to runs naming those packages.
	var scoped []analysis.Diagnostic
	for _, d := range diags {
		if strings.HasPrefix(l.Fset.Position(d.Pos).Filename, named.Dir+string(filepath.Separator)) {
			scoped = append(scoped, d)
		}
	}
	wants, err := parseWants(l.Fset, named)
	if err != nil {
		t.Fatalf("%s: %v", path, err)
	}
	return checkDiagnostics(t, l.Fset, path, scoped, wants)
}

func checkDiagnostics(t *testing.T, fset *token.FileSet, path string, diags []analysis.Diagnostic, wants []*expectation) (matched int) {
	t.Helper()
	for _, d := range diags {
		pos := fset.Position(d.Pos)
		ok := false
		for _, w := range wants {
			if !w.matched && w.file == pos.Filename && w.line == pos.Line && w.re.MatchString(d.Message) {
				w.matched = true
				ok = true
				matched++
				break
			}
		}
		if !ok {
			t.Errorf("%s: unexpected diagnostic at %s:%d: %s", path, filepath.Base(pos.Filename), pos.Line, d.Message)
		}
	}
	for _, w := range wants {
		if !w.matched {
			t.Errorf("%s: missing diagnostic at %s:%d matching %q", path, filepath.Base(w.file), w.line, w.re)
		}
	}
	return matched
}

// parseWants extracts `// want "re" ["re" ...]` clauses from the
// fixture package's comments.
func parseWants(fset *token.FileSet, pkg *loader.Package) ([]*expectation, error) {
	var wants []*expectation
	for _, f := range pkg.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				text, ok := strings.CutPrefix(c.Text, "// want ")
				if !ok {
					// The block form /* want "re" */ exists for lines whose
					// trailing line comment is itself the construct under
					// test (an //rdlint: directive swallows the rest of the
					// line, so a line-comment want cannot follow it).
					if t, ok2 := strings.CutPrefix(c.Text, "/* want "); ok2 && strings.HasSuffix(t, "*/") {
						text, ok = strings.TrimSuffix(t, "*/"), true
					}
				}
				if !ok {
					continue
				}
				pos := fset.Position(c.Pos())
				res, err := parseQuoted(text)
				if err != nil {
					return nil, fmt.Errorf("%s:%d: bad want clause: %v", filepath.Base(pos.Filename), pos.Line, err)
				}
				for _, re := range res {
					wants = append(wants, &expectation{file: pos.Filename, line: pos.Line, re: re})
				}
			}
		}
	}
	return wants, nil
}

// parseQuoted reads the space-separated Go-quoted regexps of one want
// clause.
func parseQuoted(s string) ([]*regexp.Regexp, error) {
	var out []*regexp.Regexp
	for {
		s = strings.TrimSpace(s)
		if s == "" {
			break
		}
		if s[0] != '"' {
			return nil, fmt.Errorf("expected quoted regexp, got %q", s)
		}
		q, err := strconv.QuotedPrefix(s)
		if err != nil {
			return nil, err
		}
		raw, err := strconv.Unquote(q)
		if err != nil {
			return nil, err
		}
		re, err := regexp.Compile(raw)
		if err != nil {
			return nil, err
		}
		out = append(out, re)
		s = s[len(q):]
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("want clause with no regexp")
	}
	return out, nil
}
