package main

import (
	"io"
	"reflect"
	"strings"
	"testing"
)

// twoWorkloads is `benchmark -trace 1` output for two workloads, cut
// down: a header, metric lines of every unit, an allocation count; then
// `benchmark -trace 0` output for one of them, and a longer pass's rate
// that replaces the first.
const twoWorkloads = `# cpu shares from 53 samples (benchmark/out/a.cpu.pprof)
# workload fleet-deny: stats_digest 3dbb
sweep.expand_ms                            0.014033 ms
sim.switches                          623437.000000 count
fleet.placed                           21504.000000 count
rm.admit_accept_ratio                      0.385000 ratio
rm.admit_deny_allocs                       1.000000 count
# workload paper-short: stats_digest 9453
sim.switches                         2680086.000000 count
# timed pass: 9 runs in 3 rounds, 1.125 s on the clock; run_ms_p50 from 9 samples
# workload fleet-deny: stats_digest 3dbb
runs_per_s                               347.432938 runs/s
allocs_per_run                          2369.022727 count
alloc_kb_per_run                         140.000000 KiB
peak_rss_mb                               10.038352 MiB
# workload fleet-deny: stats_digest 3dbb
alloc_kb_per_run                         133.084280 KiB
`

func TestParseCountsKeepsWorkCountsPerWorkload(t *testing.T) {
	got, err := parseCounts(strings.NewReader(twoWorkloads))
	if err != nil {
		t.Fatal(err)
	}
	want := countsFile{
		Workloads: map[string]counts{
			"fleet-deny":  {"sim.switches": 623437, "fleet.placed": 21504},
			"paper-short": {"sim.switches": 2680086},
		},
		Allocs: map[string]allocRates{
			"fleet-deny": {"allocs_per_run": 2369.022727, "alloc_kb_per_run": 133.084280},
		},
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("parsed %+v, want %+v", got, want)
	}
	if _, err := parseCounts(strings.NewReader("# workload w: stats_digest 0\nsim.switches 1.5 count\n")); err == nil {
		t.Fatal("a fractional count parsed")
	}
}

func TestCompareCountsIsExact(t *testing.T) {
	base := map[string]counts{
		"a": {"x": 1, "y": 2},
		"b": {"x": 3},
	}
	for _, tc := range []struct {
		name  string
		fresh map[string]counts
		diffs int
	}{
		{"equal", map[string]counts{"a": {"x": 1, "y": 2}, "b": {"x": 3}}, 0},
		{"one count moved by one", map[string]counts{"a": {"x": 1, "y": 3}, "b": {"x": 3}}, 1},
		{"a count missing and one new", map[string]counts{"a": {"x": 1, "z": 2}, "b": {"x": 3}}, 2},
		{"a workload missing", map[string]counts{"a": {"x": 1, "y": 2}}, 1},
	} {
		if got := compareCounts(io.Discard, base, tc.fresh); got != tc.diffs {
			t.Errorf("%s: %d differences, want %d", tc.name, got, tc.diffs)
		}
	}
}

// An allocation rate may move up to allocTolerance either way.
func TestCompareAllocsTolerance(t *testing.T) {
	base := map[string]allocRates{"a": {"allocs_per_run": 1000, "alloc_kb_per_run": 200}}
	for _, tc := range []struct {
		name  string
		fresh map[string]allocRates
		drift int
	}{
		{"equal", map[string]allocRates{"a": {"allocs_per_run": 1000, "alloc_kb_per_run": 200}}, 0},
		{"+4 %", map[string]allocRates{"a": {"allocs_per_run": 1040, "alloc_kb_per_run": 208}}, 0},
		{"-4 %", map[string]allocRates{"a": {"allocs_per_run": 960, "alloc_kb_per_run": 192}}, 0},
		{"+6 %", map[string]allocRates{"a": {"allocs_per_run": 1060, "alloc_kb_per_run": 200}}, 1},
		{"-6 %", map[string]allocRates{"a": {"allocs_per_run": 1000, "alloc_kb_per_run": 188}}, 1},
		{"both -6 %", map[string]allocRates{"a": {"allocs_per_run": 940, "alloc_kb_per_run": 188}}, 2},
		{"a rate missing", map[string]allocRates{"a": {"allocs_per_run": 1000}}, 1},
		{"a workload missing", map[string]allocRates{}, 2},
	} {
		if got := compareAllocs(io.Discard, base, tc.fresh); got != tc.drift {
			t.Errorf("%s: %d rates outside the tolerance, want %d", tc.name, got, tc.drift)
		}
	}
}
