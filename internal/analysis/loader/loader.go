// Package loader parses and typechecks this module's packages using
// only the standard library, for the rdlint standalone mode and the
// analyzer tests. It is a deliberately small substitute for
// golang.org/x/tools/go/packages, sufficient because the module has no
// external dependencies: module-internal imports are resolved by
// walking the module tree, and standard-library imports are
// typechecked from GOROOT source via go/importer's "source" compiler
// (which needs no network and no pre-compiled export data).
package loader

import (
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
)

// Package is one parsed, typechecked package.
type Package struct {
	Path      string // import path, e.g. repro/internal/sched
	Dir       string
	Files     []*ast.File
	Types     *types.Package
	TypesInfo *types.Info

	// Imports lists the module-internal (and fixture) packages this
	// package imports, sorted — the edges fleet runs use to analyze
	// dependencies before their importers.
	Imports []string
}

// Loader loads packages of one module.
type Loader struct {
	ModuleDir  string
	ModulePath string

	// ExtraSrc, when non-empty, is a GOPATH-style source root checked
	// before the module tree: import path p resolves to ExtraSrc/p if
	// that directory exists. The analyzer tests use it to mount
	// fixture packages under real-looking import paths.
	ExtraSrc string

	Fset *token.FileSet

	std     types.ImporterFrom
	pkgs    map[string]*Package
	loading map[string]bool
}

// New returns a Loader rooted at moduleDir (the directory containing
// go.mod).
func New(moduleDir string) (*Loader, error) {
	modPath, err := modulePath(filepath.Join(moduleDir, "go.mod"))
	if err != nil {
		return nil, err
	}
	fset := token.NewFileSet()
	return &Loader{
		ModuleDir:  moduleDir,
		ModulePath: modPath,
		Fset:       fset,
		std:        importer.ForCompiler(fset, "source", nil).(types.ImporterFrom),
		pkgs:       make(map[string]*Package),
		loading:    make(map[string]bool),
	}, nil
}

func modulePath(gomod string) (string, error) {
	data, err := os.ReadFile(gomod)
	if err != nil {
		return "", err
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(strings.TrimSpace(line), "module "); ok {
			return strings.TrimSpace(rest), nil
		}
	}
	return "", fmt.Errorf("loader: no module line in %s", gomod)
}

// FindModuleRoot walks upward from dir to the directory containing
// go.mod.
func FindModuleRoot(dir string) (string, error) {
	dir, err := filepath.Abs(dir)
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", fmt.Errorf("loader: no go.mod above %s", dir)
		}
		dir = parent
	}
}

// dirFor resolves an import path to a directory, or "" when the path
// is not provided by the fixture root or the module.
func (l *Loader) dirFor(path string) string {
	if l.ExtraSrc != "" {
		d := filepath.Join(l.ExtraSrc, filepath.FromSlash(path))
		if fi, err := os.Stat(d); err == nil && fi.IsDir() {
			return d
		}
	}
	if path == l.ModulePath {
		return l.ModuleDir
	}
	if rest, ok := strings.CutPrefix(path, l.ModulePath+"/"); ok {
		return filepath.Join(l.ModuleDir, filepath.FromSlash(rest))
	}
	return ""
}

// Load parses and typechecks the package at the given import path
// (module-internal or fixture), caching the result.
func (l *Loader) Load(path string) (*Package, error) {
	if p, ok := l.pkgs[path]; ok {
		return p, nil
	}
	if l.loading[path] {
		return nil, fmt.Errorf("loader: import cycle through %s", path)
	}
	dir := l.dirFor(path)
	if dir == "" {
		return nil, fmt.Errorf("loader: cannot resolve %s", path)
	}
	l.loading[path] = true
	defer delete(l.loading, path)

	names, err := goFilesIn(dir)
	if err != nil {
		return nil, err
	}
	if len(names) == 0 {
		return nil, fmt.Errorf("loader: no buildable Go files in %s", dir)
	}
	var files []*ast.File
	for _, name := range names {
		f, err := parser.ParseFile(l.Fset, filepath.Join(dir, name), nil, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}

	// Record module-internal import edges before typechecking: the
	// recursive importPkg calls below fill the cache bottom-up, and
	// callers use these edges to fleet-order whole runs.
	imports := make(map[string]bool)
	for _, f := range files {
		for _, imp := range f.Imports {
			p, err := strconv.Unquote(imp.Path.Value)
			if err != nil {
				continue
			}
			if l.dirFor(p) != "" {
				imports[p] = true
			}
		}
	}
	var importList []string
	for p := range imports {
		importList = append(importList, p)
	}
	sort.Strings(importList)

	info := &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Implicits:  make(map[ast.Node]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
	}
	conf := types.Config{
		Importer:    importerFunc(l.importPkg),
		FakeImportC: true,
	}
	tpkg, err := conf.Check(path, l.Fset, files, info)
	if err != nil {
		return nil, fmt.Errorf("loader: typecheck %s: %w", path, err)
	}
	p := &Package{Path: path, Dir: dir, Files: files, Types: tpkg, TypesInfo: info, Imports: importList}
	l.pkgs[path] = p
	return p, nil
}

// DependencyOrder loads the given packages plus every module-internal
// (or fixture) package they transitively import, and returns the
// closure topologically sorted, dependencies first. Fleet analyzer
// runs iterate this order so a package's facts exist before any
// importer asks for them.
func (l *Loader) DependencyOrder(paths []string) ([]*Package, error) {
	var out []*Package
	seen := make(map[string]bool)
	var visit func(string) error
	visit = func(path string) error {
		if seen[path] {
			return nil
		}
		seen[path] = true
		pkg, err := l.Load(path)
		if err != nil {
			return err
		}
		for _, dep := range pkg.Imports {
			if err := visit(dep); err != nil {
				return err
			}
		}
		out = append(out, pkg)
		return nil
	}
	for _, p := range paths {
		if err := visit(p); err != nil {
			return nil, err
		}
	}
	return out, nil
}

func (l *Loader) importPkg(path string) (*types.Package, error) {
	if path == "unsafe" {
		return types.Unsafe, nil
	}
	if l.dirFor(path) != "" {
		p, err := l.Load(path)
		if err != nil {
			return nil, err
		}
		return p.Types, nil
	}
	return l.std.ImportFrom(path, l.ModuleDir, 0)
}

type importerFunc func(string) (*types.Package, error)

func (f importerFunc) Import(path string) (*types.Package, error) { return f(path) }

// buildCtx evaluates build constraints the way the toolchain building
// this module would: host GOOS/GOARCH, current release tags. Files a
// real build would drop (//go:build ignore scratch files, foreign-OS
// _windows.go variants) must not reach the typechecker — they fail to
// compile here by design, and their diagnostics would be noise.
var buildCtx = build.Default

// goFilesIn lists the non-test Go files of dir that satisfy the build
// constraints, sorted.
func goFilesIn(dir string) ([]string, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var names []string
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".go") ||
			strings.HasSuffix(name, "_test.go") || strings.HasPrefix(name, ".") {
			continue
		}
		// MatchFile applies //go:build lines, legacy +build comments
		// and filename GOOS/GOARCH suffixes.
		if ok, err := buildCtx.MatchFile(dir, name); err != nil || !ok {
			continue
		}
		names = append(names, name)
	}
	sort.Strings(names)
	return names, nil
}

// Patterns resolves command-line package patterns ("./...", "./x",
// "x/...", import paths) to import paths in deterministic order. The
// trailing "..." form walks the tree below its root, skipping
// testdata, hidden and underscore directories.
func (l *Loader) Patterns(patterns []string) ([]string, error) {
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	seen := make(map[string]bool)
	var out []string
	for _, pat := range patterns {
		root, walk := strings.CutSuffix(pat, "...")
		dir := l.dirForPattern(strings.TrimSuffix(root, "/"))
		if dir == "" {
			return nil, fmt.Errorf("cannot resolve pattern %q", pat)
		}
		paths := []string{l.importPath(dir)}
		if walk {
			var err error
			if paths, err = l.walkModule(dir); err != nil {
				return nil, err
			}
		}
		for _, p := range paths {
			if !seen[p] {
				seen[p] = true
				out = append(out, p)
			}
		}
	}
	return out, nil
}

// importPath is the import path of a directory inside the module (dir
// was built from ModuleDir, so Rel cannot fail).
func (l *Loader) importPath(dir string) string {
	rel, err := filepath.Rel(l.ModuleDir, dir)
	if err != nil || rel == "." {
		return l.ModulePath
	}
	return l.ModulePath + "/" + filepath.ToSlash(rel)
}

// dirForPattern resolves ".", "./x", "x" (relative to the module dir)
// or a full import path to a directory.
func (l *Loader) dirForPattern(pat string) string {
	if d := l.dirFor(pat); d != "" {
		return d
	}
	d := filepath.Join(l.ModuleDir, filepath.FromSlash(strings.TrimPrefix(pat, "./")))
	if fi, err := os.Stat(d); err == nil && fi.IsDir() {
		return d
	}
	return ""
}

// walkModule returns the import paths of all packages under root (a
// directory inside the module) that contain non-test Go files.
func (l *Loader) walkModule(root string) ([]string, error) {
	var out []string
	err := filepath.WalkDir(root, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if !d.IsDir() {
			return nil
		}
		name := d.Name()
		if path != root && (name == "testdata" || strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_")) {
			return filepath.SkipDir
		}
		files, err := goFilesIn(path)
		if err != nil {
			return err
		}
		if len(files) == 0 {
			return nil
		}
		out = append(out, l.importPath(path))
		return nil
	})
	sort.Strings(out)
	return out, err
}
