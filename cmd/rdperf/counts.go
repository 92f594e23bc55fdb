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

// The BENCH_counts file format: each benchmark workload's exact work
// counts, the `… count` lines `benchmark -trace 1 -seed 1` prints.
//
//	{
//	  "schema": "rdperf-counts/v1",
//	  "workloads": {
//	    "<workload>": { "<count>": value }
//	  }
//	}
//
// The counts repeat exactly for a seed on any machine, so they are held
// to the file with no tolerance: a count that moves means the simulated
// behaviour changed.
type countsFile struct {
	Schema    string            `json:"schema"`
	Workloads map[string]counts `json:"workloads"`
}

// counts is one workload's work counts, keyed by metric name.
type counts map[string]int64

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
	if len(fresh) == 0 {
		return fmt.Errorf("counts: no workload on stdin (want the output of benchmark -trace 1)")
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
	if diffs := compareCounts(os.Stdout, cf.Workloads, fresh); diffs > 0 {
		return fmt.Errorf("%d count(s) differ from %s", diffs, against)
	}
	return nil
}

// recordCounts writes the fresh workloads into the file at path,
// keeping the workloads of it the run did not cover.
func recordCounts(path string, fresh map[string]counts) error {
	cf := countsFile{Workloads: map[string]counts{}}
	if raw, err := os.ReadFile(path); err == nil {
		if err := json.Unmarshal(raw, &cf); err != nil {
			return fmt.Errorf("%s: %v", path, err)
		}
	} else if !os.IsNotExist(err) {
		return err
	}
	if cf.Workloads == nil {
		cf.Workloads = map[string]counts{}
	}
	for w, c := range fresh {
		cf.Workloads[w] = c
	}
	cf.Schema = "rdperf-counts/v1"
	blob, err := json.MarshalIndent(&cf, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(blob, '\n'), 0o644)
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

// parseCounts reads the text `benchmark -trace 1` prints, for one
// workload or several, and returns each workload's count lines. A
// workload's lines follow its "# workload <name>: stats_digest …"
// line and look like
//
//	sched.dispatches                      968721.000000 count
//
// Allocation counts are left out: they are the Go runtime's, not the
// simulation's, and need not repeat.
func parseCounts(r io.Reader) (map[string]counts, error) {
	out := map[string]counts{}
	var cur counts
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 1<<20), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		if rest, ok := strings.CutPrefix(line, "# workload "); ok {
			name, _, ok := strings.Cut(rest, ":")
			if !ok {
				continue
			}
			cur = counts{}
			out[name] = cur
			continue
		}
		fields := strings.Fields(line)
		if cur == nil || len(fields) != 3 || fields[2] != "count" || strings.Contains(fields[0], "allocs") {
			continue
		}
		v, err := strconv.ParseFloat(fields[1], 64)
		if err != nil || v != math.Trunc(v) || math.Abs(v) >= 1<<53 {
			return nil, fmt.Errorf("counts: %q is not a whole count", line)
		}
		cur[fields[0]] = int64(v)
	}
	return out, sc.Err()
}
