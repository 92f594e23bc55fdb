// Command rdlint runs the determinism, unit-safety, dataflow and
// concurrency analyzers in internal/analysis over this module
// (catalogued in docs/LINTING.md):
//
//	go run ./cmd/rdlint ./...
//	go run ./cmd/rdlint ./internal/sched
//
// Findings print as file:line:col: analyzer: message and a non-zero
// exit (2, matching go vet) reports that findings exist. Sites are
// waived inline with //rdlint:ordered-ok <reason> or
// //rdlint:allow <analyzer> <reason>; every directive is audited and a
// stale one fails the run. See docs/LINTING.md.
package main

import (
	"fmt"
	"os"

	"repro/internal/analysis"
	"repro/internal/analysis/loader"
)

func main() {
	var patterns []string
	for _, arg := range os.Args[1:] {
		switch arg {
		case "help", "-h", "-help", "--help":
			usage()
			return
		}
		patterns = append(patterns, arg)
	}
	os.Exit(standalone(patterns))
}

func usage() {
	fmt.Fprintf(os.Stderr, "usage: rdlint [packages]   (go run ./cmd/rdlint ./...)\n\nanalyzers:\n")
	for _, a := range analysis.Analyzers {
		fmt.Fprintf(os.Stderr, "  %-10s %s\n", a.Name, a.Doc)
	}
}

// standalone lints the packages the patterns name — with the stale-
// waiver audit: this invocation is the `make lint` gate — and returns
// the exit code.
func standalone(patterns []string) int {
	l, paths, err := load(patterns)
	var diags []analysis.Diagnostic
	if err == nil {
		diags, err = analysis.RunUnits(l, paths, analysis.Analyzers, true)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "rdlint:", err)
		return 1
	}
	for _, d := range diags {
		fmt.Fprintf(os.Stderr, "%s: %s: %s\n", l.Fset.Position(d.Pos), d.Analyzer, d.Message)
	}
	if len(diags) > 0 {
		return 2
	}
	return 0
}

// load resolves the patterns against the module around the working
// directory.
func load(patterns []string) (*loader.Loader, []string, error) {
	root, err := loader.FindModuleRoot(".")
	if err != nil {
		return nil, nil, err
	}
	l, err := loader.New(root)
	if err != nil {
		return nil, nil, err
	}
	paths, err := l.Patterns(patterns)
	return l, paths, err
}
