package analysis

import (
	"go/ast"
	"go/types"
	"path/filepath"
	"strconv"
)

// srcTier says what the analyzers do about one standard-library entry
// point to host nondeterminism. Whatever the tier, detflow treats the
// function's results as tainted: they must not reach a deterministic
// record.
type srcTier int

const (
	// taintOnly sources are legitimate to call — bounding a worker pool
	// with runtime.GOMAXPROCS is fine (sweep does) — recording them into
	// a deterministic artifact is not.
	taintOnly srcTier = iota
	// hostState sources read the process's environment; detflow reports
	// a direct call in a deterministic package.
	hostState
	// hostClock sources read or wait on the host clock; wallclock
	// reports any reference to one in a deterministic package, where all
	// time is virtual (sim.Kernel.Now advances only when the simulation
	// advances it). time.Duration arithmetic and conversions stay fine:
	// they are pure values.
	hostClock
	// forbiddenImport marks a whole package: rawrand reports its import
	// anywhere in the module but internal/sim/rng.go. math/rand's stream
	// is not guaranteed stable across Go releases and EXPERIMENTS.md
	// records exact simulated numbers, so all randomness flows through
	// the seeded xorshift64* generator in internal/sim (sim.RNG) — in
	// workloads and examples too, not only the deterministic set.
	forbiddenImport
)

// everyName keys the tier of a package whose every function is a
// source.
const everyName = "*"

// hostSources maps package path -> function name -> tier: the one list
// wallclock, rawrand and detflow all read.
var hostSources = map[string]map[string]srcTier{
	"time": {
		"Now": hostClock, "Since": hostClock, "Until": hostClock,
		"Sleep": hostClock, "Tick": hostClock, "After": hostClock, "AfterFunc": hostClock,
		"NewTimer": hostClock, "NewTicker": hostClock,
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
	"math/rand":    {everyName: forbiddenImport},
	"math/rand/v2": {everyName: forbiddenImport},
}

// sourceFunc reports whether fn is a nondeterminism source, with a
// printable name and its tier.
func sourceFunc(fn *types.Func) (via string, tier srcTier, ok bool) {
	if fn.Pkg() == nil {
		return "", 0, false
	}
	names := hostSources[fn.Pkg().Path()]
	tier, ok = names[everyName]
	if !ok && recvTypeName(fn) == nil { // named entries are package-level functions: Time.After is a pure comparison
		tier, ok = names[fn.Name()]
	}
	if !ok {
		return "", 0, false
	}
	return fn.Pkg().Path() + "." + fn.Name(), tier, true
}

// WallClock forbids host-clock access in the deterministic packages.
var WallClock = &Analyzer{
	Name: "wallclock",
	Doc:  "forbid host-clock access in deterministic packages",
	Run:  runWallClock,
}

func runWallClock(pass *Pass) {
	if !InDeterministicPackage(pass.Pkg.Path()) {
		return
	}
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			// Any reference counts, not only a call: a bound time.Now is
			// read later, out of this analyzer's sight.
			if id, ok := n.(*ast.Ident); ok {
				if fn, ok := pass.TypesInfo.Uses[id].(*types.Func); ok {
					if _, tier, ok := sourceFunc(fn); ok && tier == hostClock {
						pass.Reportf(id.Pos(),
							"time.%s reads the host clock inside deterministic package %s; use the virtual clock (sim.Kernel.Now / Kernel.After)",
							fn.Name(), pass.Pkg.Path())
					}
				}
			}
			return true
		})
	}
}

// RawRand forbids importing math/rand and math/rand/v2 anywhere in the
// module except internal/sim/rng.go.
var RawRand = &Analyzer{
	Name: "rawrand",
	Doc:  "forbid math/rand imports outside internal/sim/rng.go",
	Run:  runRawRand,
}

func runRawRand(pass *Pass) {
	for _, f := range pass.Files {
		// The one sanctioned home: were sim.RNG ever reimplemented on
		// top of math/rand/v2, internal/sim/rng.go is where the import
		// would live.
		if pass.Pkg.Path() == simPackage && filepath.Base(pass.Fset.Position(f.Pos()).Filename) == "rng.go" {
			continue
		}
		for _, imp := range f.Imports {
			path, _ := strconv.Unquote(imp.Path.Value) // the parser accepted it
			if tier, ok := hostSources[path][everyName]; ok && tier == forbiddenImport {
				pass.Reportf(imp.Pos(),
					"import of %s outside internal/sim/rng.go; use the seeded, version-stable sim.RNG so recorded results survive Go releases",
					path)
			}
		}
	}
}
