package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
	"strconv"
	"strings"
)

// The BENCH_counts file format: each benchmark workload's exact work
// counts, the `… count` lines `benchmark -trace 1 -seed 1` prints, and
// its allocation rates, the allocs_per_run and alloc_kb_per_run lines
// of `benchmark -trace 0 -seed 1 -seconds 1` at GOMAXPROCS=2.
//
//	{
//	  "schema": "rdperf-counts/v1",
//	  "workloads": {
//	    "<workload>": { "<count>": value }
//	  },
//	  "allocs": {
//	    "<workload>": { "allocs_per_run": value, "alloc_kb_per_run": value }
//	  }
//	}
//
// The counts repeat exactly for a seed on any machine, so they are held
// to the file with no tolerance: a count that moves means the simulated
// behaviour changed. The allocation rates are the Go runtime's and
// move a little from run to run, so they are held within
// allocTolerance, in either direction: a rate that falls as far as
// that is a gain the file should record.
type countsFile struct {
	Schema    string                `json:"schema"`
	Workloads map[string]counts     `json:"workloads"`
	Allocs    map[string]allocRates `json:"allocs,omitempty"`
}

// counts is one workload's work counts, keyed by metric name.
type counts map[string]int64

// allocRates is one workload's allocation rates, keyed by metric name.
type allocRates map[string]float64

// allocTolerance is how far, as a fraction of the recorded value, an
// allocation rate may move either way.
const allocTolerance = 0.05

// cmdCounts reads benchmark output on stdin and records its counts in
// out or compares them with against; exactly one of the two is named.
func cmdCounts(out, against string, rest []string) error {
	if (out == "") == (against == "") || len(rest) != 0 {
		usage()
	}
	fresh, err := parseCounts(os.Stdin)
	if err != nil {
		return err
	}
	if len(fresh.Workloads)+len(fresh.Allocs) == 0 {
		return fmt.Errorf("counts: no workload on stdin (want the output of benchmark -trace 1 and -trace 0)")
	}
	if out != "" {
		return recordCounts(out, fresh)
	}
	raw, err := os.ReadFile(against)
	if err != nil {
		return err
	}
	var cf countsFile
	if err := json.Unmarshal(raw, &cf); err != nil {
		return fmt.Errorf("%s: %v", against, err)
	}
	var errs []string
	if diffs := compareCounts(os.Stdout, cf.Workloads, fresh.Workloads); diffs > 0 {
		errs = append(errs, fmt.Sprintf("%d count(s) differ from %s", diffs, against))
	}
	if drift := compareAllocs(os.Stdout, cf.Allocs, fresh.Allocs); drift > 0 {
		errs = append(errs, fmt.Sprintf("%d allocation rate(s) moved beyond ±%.0f %% of %s: re-record with `rdperf counts -out`",
			drift, 100*allocTolerance, against))
	}
	if len(errs) > 0 {
		return errors.New(strings.Join(errs, "; "))
	}
	return nil
}

// recordCounts writes the fresh workloads into the file at path,
// keeping the workloads of it the run did not cover.
func recordCounts(path string, fresh countsFile) error {
	var cf countsFile
	if raw, err := os.ReadFile(path); err == nil {
		if err := json.Unmarshal(raw, &cf); err != nil {
			return fmt.Errorf("%s: %v", path, err)
		}
	} else if !os.IsNotExist(err) {
		return err
	}
	cf.Workloads = merge(cf.Workloads, fresh.Workloads)
	cf.Allocs = merge(cf.Allocs, fresh.Allocs)
	cf.Schema = "rdperf-counts/v1"
	blob, err := json.MarshalIndent(&cf, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(blob, '\n'), 0o644)
}

// merge sets into's entries for every key of from.
func merge[V any](into, from map[string]V) map[string]V {
	if into == nil {
		into = map[string]V{}
	}
	for k, v := range from {
		into[k] = v
	}
	return into
}

// compareCounts prints every count that differs between base and fresh
// — a different value, or a count or workload only one side has — and
// returns how many there are.
func compareCounts(w io.Writer, base, fresh map[string]counts) int {
	diffs, total := 0, 0
	for _, wl := range unionKeys(base, fresh) {
		b, f := base[wl], fresh[wl]
		if b == nil || f == nil {
			fmt.Fprintf(w, "%-18s only in the %s\n", wl, side(b != nil))
			diffs++
			continue
		}
		for _, name := range unionKeys(b, f) {
			old, inOld := b[name]
			now, inNew := f[name]
			total++
			switch {
			case inOld != inNew:
				fmt.Fprintf(w, "%-18s %-36s only in the %s\n", wl, name, side(inOld))
			case old != now:
				fmt.Fprintf(w, "%-18s %-36s %14d → %d\n", wl, name, old, now)
			default:
				continue
			}
			diffs++
		}
	}
	if diffs == 0 {
		fmt.Fprintf(w, "rdperf: all %d counts of %d workloads equal the baseline\n", total, len(base))
	}
	return diffs
}

// compareAllocs prints every allocation rate more than allocTolerance
// from base, or on one side only, and returns how many there are.
func compareAllocs(w io.Writer, base, fresh map[string]allocRates) int {
	drift, total := 0, 0
	for _, wl := range unionKeys(base, fresh) {
		b, f := base[wl], fresh[wl]
		for _, name := range unionKeys(b, f) {
			old, inOld := b[name]
			now, inNew := f[name]
			total++
			switch {
			case inOld != inNew:
				fmt.Fprintf(w, "%-18s %-36s only in the %s\n", wl, name, side(inOld))
			case math.Abs(now-old) > allocTolerance*math.Abs(old):
				fmt.Fprintf(w, "%-18s %-36s %14.1f → %.1f (%+.1f %%)\n", wl, name, old, now, 100*(now/old-1))
			default:
				continue
			}
			drift++
		}
	}
	if drift == 0 {
		fmt.Fprintf(w, "rdperf: all %d allocation rates are within ±%.0f %% of the baseline\n", total, 100*allocTolerance)
	}
	return drift
}

func side(inBase bool) string {
	if inBase {
		return "baseline"
	}
	return "fresh run"
}

// unionKeys returns the keys of a and b, sorted.
func unionKeys[V any](a, b map[string]V) []string {
	keys := make([]string, 0, len(a)+len(b))
	for k := range a {
		keys = append(keys, k)
	}
	for k := range b {
		if _, ok := a[k]; !ok {
			keys = append(keys, k)
		}
	}
	sort.Strings(keys)
	return keys
}

// parseCounts reads the text `benchmark -trace 1` and `-trace 0`
// print, for one workload or several, in one stream or one after the
// other, and returns each workload's count lines and allocation rates;
// a line seen again replaces the value it had.
// A workload's lines follow its "# workload <name>: stats_digest …"
// line and look like
//
//	sched.dispatches                      968721.000000 count
//	allocs_per_run                         34289.166667 count
//	alloc_kb_per_run                       33271.778646 KiB
//
// allocs_per_run and alloc_kb_per_run are the allocation rates; every
// other allocation count is left out, being the Go runtime's, not the
// simulation's.
func parseCounts(r io.Reader) (countsFile, error) {
	out := countsFile{Workloads: map[string]counts{}, Allocs: map[string]allocRates{}}
	var cur string
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 1<<20), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		if rest, ok := strings.CutPrefix(line, "# workload "); ok {
			if name, _, ok := strings.Cut(rest, ":"); ok {
				cur = name
			}
			continue
		}
		fields := strings.Fields(line)
		if cur == "" || len(fields) != 3 {
			continue
		}
		v, err := strconv.ParseFloat(fields[1], 64)
		switch name := fields[0]; {
		case name == "allocs_per_run" || name == "alloc_kb_per_run":
			if err != nil {
				return countsFile{}, fmt.Errorf("counts: %q is not a rate", line)
			}
			if out.Allocs[cur] == nil {
				out.Allocs[cur] = allocRates{}
			}
			out.Allocs[cur][name] = v
		case fields[2] == "count" && !strings.Contains(name, "allocs"):
			if err != nil || v != math.Trunc(v) || math.Abs(v) >= 1<<53 {
				return countsFile{}, fmt.Errorf("counts: %q is not a whole count", line)
			}
			if out.Workloads[cur] == nil {
				out.Workloads[cur] = counts{}
			}
			out.Workloads[cur][name] = int64(v)
		}
	}
	return out, sc.Err()
}
