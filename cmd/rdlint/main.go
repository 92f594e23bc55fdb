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
	"strings"

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
		fmt.Fprintf(os.Stderr, "  %-10s %s\n", a.Name, strings.SplitN(a.Doc, "\n", 2)[0])
	}
}

func standalone(patterns []string) int {
	root, err := loader.FindModuleRoot(".")
	if err != nil {
		fmt.Fprintln(os.Stderr, "rdlint:", err)
		return 1
	}
	l, err := loader.New(root)
	if err != nil {
		fmt.Fprintln(os.Stderr, "rdlint:", err)
		return 1
	}
	paths, err := l.Patterns(patterns)
	if err != nil {
		fmt.Fprintln(os.Stderr, "rdlint:", err)
		return 1
	}
	requested := make(map[string]bool, len(paths))
	for _, p := range paths {
		requested[p] = true
	}
	// The fleet run covers the dependency closure so cross-package
	// facts (detflow summaries, rngstream stream tables) exist before
	// their importers are analyzed; only the requested packages
	// report. The stale-waiver audit and the fleet-wide Finish hooks
	// run here — this invocation is the `make lint` gate.
	pkgs, err := l.DependencyOrder(paths)
	if err != nil {
		fmt.Fprintln(os.Stderr, "rdlint:", err)
		return 1
	}
	units := make([]*analysis.Unit, 0, len(pkgs))
	for _, pkg := range pkgs {
		units = append(units, &analysis.Unit{
			Files:     pkg.Files,
			Pkg:       pkg.Types,
			TypesInfo: pkg.TypesInfo,
			Report:    requested[pkg.Path],
		})
	}
	diags, err := analysis.RunUnits(l.Fset, units, analysis.Analyzers, analysis.RunOptions{Audit: true})
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
