// rdperf maintains the repository's committed layer-benchmark baseline
// (BENCH_kernel.json) and compares fresh runs against it,
// benchstat-style. It has two subcommands:
//
//	go test -run=NONE -bench . -benchmem ./... | rdperf parse -label current -out BENCH_kernel.json
//	go test -run=NONE -bench . -benchmem ./... | rdperf compare -against BENCH_kernel.json -section current
//
// parse reads `go test -bench` text on stdin and records each
// benchmark's metrics (ns/op, B/op, allocs/op, and any custom
// b.ReportMetric units) under the named section of the output file.
// compare prints a delta table against a committed section and flags
// changes beyond the threshold; it is report-only by default (exit 0
// regardless) so CI can surface drift without turning benchmark noise
// into build failures — pass -gate (alias: -strict) to make
// regressions beyond the threshold fatal (non-zero exit), and
// -gate-units to restrict which units count toward that gate (CI
// gates on the machine-independent allocs/op and B/op; timing units
// are judged and printed but tagged report-only).
//
// The BENCH file format:
//
//	{
//	  "schema": "rdperf/v1",
//	  "sections": {
//	    "current": { "<benchmark>": { "<unit>": value } }
//	  }
//	}
//
// Benchmark names are normalized by stripping the trailing -N
// GOMAXPROCS suffix, so files recorded on different machines compare.
package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
	"strconv"
	"strings"
)

// metrics is one benchmark's measurements, keyed by unit.
type metrics map[string]float64

// section is a named set of benchmark results.
type section map[string]metrics

// benchFile is the committed BENCH_*.json layout.
type benchFile struct {
	Schema   string             `json:"schema"`
	Sections map[string]section `json:"sections"`
}

func main() {
	if len(os.Args) < 2 {
		usage()
	}
	var err error
	switch os.Args[1] {
	case "parse":
		err = cmdParse(os.Args[2:])
	case "compare":
		err = cmdCompare(os.Args[2:])
	default:
		usage()
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "rdperf:", err)
		os.Exit(2)
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, `usage:
  rdperf parse   -label NAME -out FILE          < go-test-bench-output
  rdperf compare -against FILE [-section NAME] [-threshold PCT] [-gate|-strict] [-gate-units U1,U2] < go-test-bench-output`)
	os.Exit(2)
}

// --- parse ---

func cmdParse(args []string) error {
	label, out, rest, err := labelOut(args)
	if err != nil {
		return err
	}
	if len(rest) != 0 {
		return fmt.Errorf("parse: unexpected arguments %v", rest)
	}
	sec, err := parseBenchText(os.Stdin)
	if err != nil {
		return err
	}
	if len(sec) == 0 {
		return fmt.Errorf("parse: no Benchmark lines on stdin")
	}
	return updateSection(out, label, sec)
}

// labelOut parses parse's flags.
func labelOut(args []string) (label, out string, rest []string, err error) {
	for i := 0; i < len(args); i++ {
		switch args[i] {
		case "-label":
			i++
			if i == len(args) {
				return "", "", nil, fmt.Errorf("-label needs a value")
			}
			label = args[i]
		case "-out":
			i++
			if i == len(args) {
				return "", "", nil, fmt.Errorf("-out needs a value")
			}
			out = args[i]
		default:
			rest = append(rest, args[i])
		}
	}
	if label == "" || out == "" {
		return "", "", nil, fmt.Errorf("-label and -out are required")
	}
	return label, out, rest, nil
}

// updateSection rewrites one section of a BENCH file, preserving the
// others (new benchmarks in the fresh run are added; benchmarks the
// fresh run did not exercise are kept so partial runs don't erase
// history).
func updateSection(path, label string, sec section) error {
	bf := benchFile{Schema: "rdperf/v1", Sections: map[string]section{}}
	if raw, err := os.ReadFile(path); err == nil {
		if err := json.Unmarshal(raw, &bf); err != nil {
			return fmt.Errorf("%s: %v", path, err)
		}
		if bf.Sections == nil {
			bf.Sections = map[string]section{}
		}
	} else if !os.IsNotExist(err) {
		return err
	}
	dst := bf.Sections[label]
	if dst == nil {
		dst = section{}
		bf.Sections[label] = dst
	}
	for name, m := range sec {
		dst[name] = m
	}
	bf.Schema = "rdperf/v1"
	blob, err := json.MarshalIndent(&bf, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(blob, '\n'), 0o644)
}

// --- compare ---

func cmdCompare(args []string) error {
	against, sectionName, threshold := "", "current", 10.0
	gate := false
	var gateUnits map[string]bool
	for i := 0; i < len(args); i++ {
		switch args[i] {
		case "-gate-units":
			// Restrict which units count toward the gate: timings on
			// shared CI runners are too noisy to block merges, but
			// allocs/op and B/op are machine-independent and gate
			// reliably. Units outside the set are still reported.
			i++
			if i == len(args) {
				return fmt.Errorf("-gate-units needs a comma-separated list")
			}
			gateUnits = map[string]bool{}
			for _, u := range strings.Split(args[i], ",") {
				if u = strings.TrimSpace(u); u != "" {
					gateUnits[u] = true
				}
			}
		case "-against":
			i++
			if i == len(args) {
				return fmt.Errorf("-against needs a value")
			}
			against = args[i]
		case "-section":
			i++
			if i == len(args) {
				return fmt.Errorf("-section needs a value")
			}
			sectionName = args[i]
		case "-threshold":
			i++
			if i == len(args) {
				return fmt.Errorf("-threshold needs a value")
			}
			v, err := strconv.ParseFloat(args[i], 64)
			if err != nil || v <= 0 {
				return fmt.Errorf("bad -threshold %q", args[i])
			}
			threshold = v
		case "-gate", "-strict":
			// -strict is the CI-facing alias: exit non-zero on any
			// regression beyond the threshold (default ±10%).
			gate = true
		default:
			return fmt.Errorf("compare: unknown argument %q", args[i])
		}
	}
	if against == "" {
		return fmt.Errorf("-against is required")
	}
	raw, err := os.ReadFile(against)
	if err != nil {
		return err
	}
	var bf benchFile
	if err := json.Unmarshal(raw, &bf); err != nil {
		return fmt.Errorf("%s: %v", against, err)
	}
	base := bf.Sections[sectionName]
	if base == nil {
		return fmt.Errorf("%s has no section %q", against, sectionName)
	}
	fresh, err := parseBenchText(os.Stdin)
	if err != nil {
		return err
	}
	if len(fresh) == 0 {
		return fmt.Errorf("compare: no Benchmark lines on stdin")
	}

	regressions := report(os.Stdout, base, fresh, threshold, gateUnits)
	if gate && regressions > 0 {
		return fmt.Errorf("%d regression(s) beyond %.0f%%", regressions, threshold)
	}
	return nil
}

// lowerIsBetter says which direction is a regression for a unit.
// Throughput-style units — the framework's MB/s (b.SetBytes) and the
// repo's custom */sec — grow when things improve; everything else the
// Go benchmark framework emits natively (ns/op, B/op, allocs/op) and
// the repo's custom per-run counters shrink.
func lowerIsBetter(unit string) bool {
	return unit != "MB/s" && !strings.Contains(unit, "/sec")
}

// report prints the delta table and returns the number of regressions
// beyond the threshold. Units where both sides are zero (the pinned
// 0 allocs/op rows) count as unchanged; a zero baseline with a
// non-zero fresh value is an automatic regression for
// lower-is-better units. A non-nil gateUnits set restricts which
// units count toward the returned total: the rest are still judged
// and printed, tagged "(report-only)".
func report(w io.Writer, base section, fresh section, threshold float64, gateUnits map[string]bool) int {
	names := make([]string, 0, len(fresh))
	for name := range fresh {
		if _, ok := base[name]; ok {
			names = append(names, name)
		}
	}
	sort.Strings(names)
	if len(names) == 0 {
		fmt.Fprintln(w, "rdperf: no benchmarks in common with the baseline")
		return 0
	}
	regressions := 0
	fmt.Fprintf(w, "%-52s %-12s %14s %14s %10s\n", "benchmark", "unit", "old", "new", "delta")
	for _, name := range names {
		units := make([]string, 0, len(fresh[name]))
		for u := range fresh[name] {
			// iterations is recorded for provenance (sample size) but
			// is not a performance metric: go test picks it to fill
			// -benchtime, so comparing it only reports noise.
			if u == "iterations" {
				continue
			}
			if _, ok := base[name][u]; ok {
				units = append(units, u)
			}
		}
		sort.Strings(units)
		for _, u := range units {
			old, now := base[name][u], fresh[name][u]
			verdict, delta := judge(old, now, u, threshold)
			if verdict == "REGRESSION" {
				if gateUnits == nil || gateUnits[u] {
					regressions++
				} else {
					verdict = "REGRESSION (report-only)"
				}
			}
			fmt.Fprintf(w, "%-52s %-12s %14.6g %14.6g %9s %s\n", name, u, old, now, delta, verdict)
		}
	}
	if regressions > 0 {
		fmt.Fprintf(w, "\nrdperf: %d metric(s) regressed beyond ±%.0f%% — if real and intended, refresh the baseline with `make bench`\n", regressions, threshold)
	} else {
		fmt.Fprintf(w, "\nrdperf: all metrics within ±%.0f%% of the baseline\n", threshold)
	}
	return regressions
}

// judge classifies one (old, new) pair and renders the delta column.
func judge(old, now float64, unit string, threshold float64) (verdict, delta string) {
	if old == 0 && now == 0 {
		return "", "0%"
	}
	if old == 0 {
		if lowerIsBetter(unit) {
			return "REGRESSION", "+inf%"
		}
		return "improved", "+inf%"
	}
	pct := (now - old) / old * 100
	delta = fmt.Sprintf("%+.1f%%", pct)
	if math.Abs(pct) <= threshold {
		return "", delta
	}
	worse := pct > 0
	if !lowerIsBetter(unit) {
		worse = !worse
	}
	if worse {
		return "REGRESSION", delta
	}
	return "improved", delta
}

// --- go test -bench output parsing ---

// parseBenchText reads `go test -bench` output and returns the
// benchmark results keyed by normalized name. Lines look like:
//
//	BenchmarkKernelStep-8   54321   21.35 ns/op   0 B/op   0 allocs/op
//	BenchmarkFleetEpoch/nodes=120-8   8808   136954 ns/op   0 B/op   0 allocs/op
func parseBenchText(r io.Reader) (section, error) {
	sec := section{}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 1<<20), 1<<20)
	for sc.Scan() {
		fields := strings.Fields(sc.Text())
		if len(fields) < 4 || !strings.HasPrefix(fields[0], "Benchmark") {
			continue
		}
		iters, err := strconv.ParseFloat(fields[1], 64)
		if err != nil {
			continue // "Benchmark..." prose, not a result line
		}
		name := normalizeName(fields[0])
		m := metrics{"iterations": iters}
		for i := 2; i+1 < len(fields); i += 2 {
			v, err := strconv.ParseFloat(fields[i], 64)
			if err != nil {
				break
			}
			m[fields[i+1]] = v
		}
		if len(m) > 1 {
			sec[name] = m
		}
	}
	return sec, sc.Err()
}

// normalizeName strips the trailing -GOMAXPROCS suffix go test
// appends, so results from machines with different core counts land
// under the same key.
func normalizeName(s string) string {
	i := strings.LastIndex(s, "-")
	if i < 0 {
		return s
	}
	if _, err := strconv.Atoi(s[i+1:]); err != nil {
		return s
	}
	return s[:i]
}
