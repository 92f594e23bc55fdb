// rdperf maintains the repository's committed layer-benchmark baseline
// (BENCH_kernel.json) and gates fresh runs against it, benchstat-style.
// It has two subcommands:
//
//	go test -run=NONE -bench . -benchmem ./... | rdperf parse -out BENCH_kernel.json
//	go test -run=NONE -bench . -benchmem ./... | rdperf compare -against BENCH_kernel.json
//
// parse reads `go test -bench` text on stdin and records each
// benchmark's metrics (ns/op, B/op, allocs/op, and any custom
// b.ReportMetric units) in the output file. compare prints a delta
// table against the committed file, flags every change beyond ±15 %,
// and exits non-zero when a machine-independent unit (allocs/op, B/op)
// regressed by more; timing units on a shared runner are too noisy to
// block a merge, so they are judged and printed but tagged
// report-only. A local run that only wants the table ignores the exit
// status.
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
	"flag"
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

// The one baseline section, the tolerance every comparison uses, and
// the units whose regressions fail the build.
const (
	baseline  = "current"
	threshold = 15.0
)

var gated = map[string]bool{"allocs/op": true, "B/op": true}

func main() {
	if len(os.Args) < 2 {
		usage()
	}
	fs := flag.NewFlagSet("rdperf "+os.Args[1], flag.ExitOnError)
	var err error
	switch os.Args[1] {
	case "parse":
		out := fs.String("out", "", "BENCH file to update (required)")
		fs.Parse(os.Args[2:])
		err = cmdParse(*out, fs.Args())
	case "compare":
		against := fs.String("against", "", "committed BENCH file to compare with (required)")
		fs.Parse(os.Args[2:])
		err = cmdCompare(*against, fs.Args())
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
  rdperf parse   -out FILE      < go-test-bench-output
  rdperf compare -against FILE  < go-test-bench-output`)
	os.Exit(2)
}

// readBench parses stdin for cmd, which needs a file name and takes no
// positional arguments.
func readBench(cmd, path string, rest []string) (section, error) {
	if path == "" || len(rest) != 0 {
		usage()
	}
	sec, err := parseBenchText(os.Stdin)
	if err == nil && len(sec) == 0 {
		err = fmt.Errorf("%s: no Benchmark lines on stdin", cmd)
	}
	return sec, err
}

// cmdParse merges the fresh run into the baseline section of the BENCH
// file: new benchmarks are added, and benchmarks the run did not
// exercise are kept, so a partial run does not erase history.
func cmdParse(path string, rest []string) error {
	sec, err := readBench("parse", path, rest)
	if err != nil {
		return err
	}
	bf := benchFile{Sections: map[string]section{}}
	if raw, err := os.ReadFile(path); err == nil {
		if err := json.Unmarshal(raw, &bf); err != nil {
			return fmt.Errorf("%s: %v", path, err)
		}
	} else if !os.IsNotExist(err) {
		return err
	}
	if bf.Sections[baseline] == nil {
		bf.Sections = map[string]section{baseline: {}}
	}
	for name, m := range sec {
		bf.Sections[baseline][name] = m
	}
	bf.Schema = "rdperf/v1"
	blob, err := json.MarshalIndent(&bf, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(blob, '\n'), 0o644)
}

func cmdCompare(against string, rest []string) error {
	fresh, err := readBench("compare", against, rest)
	if err != nil {
		return err
	}
	raw, err := os.ReadFile(against)
	if err != nil {
		return err
	}
	var bf benchFile
	if err := json.Unmarshal(raw, &bf); err != nil {
		return fmt.Errorf("%s: %v", against, err)
	}
	base := bf.Sections[baseline]
	if base == nil {
		return fmt.Errorf("%s has no section %q", against, baseline)
	}
	if regressions := report(os.Stdout, base, fresh); regressions > 0 {
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
// beyond the threshold in gated units. Units where both sides are zero
// (the pinned 0 allocs/op rows) count as unchanged; a zero baseline
// with a non-zero fresh value is an automatic regression for
// lower-is-better units. Every other unit is still judged and printed,
// tagged "(report-only)".
func report(w io.Writer, base, fresh section) int {
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
			verdict, delta := judge(old, now, u)
			if verdict == "REGRESSION" {
				if gated[u] {
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
func judge(old, now float64, unit string) (verdict, delta string) {
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
