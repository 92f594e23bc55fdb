package main

import (
	"io"
	"reflect"
	"strings"
	"testing"
)

// twoWorkloads is `benchmark -trace 1` output for two workloads, cut
// down: a header, metric lines of every unit, an allocation count.
const twoWorkloads = `# cpu shares from 53 samples (benchmark/out/a.cpu.pprof)
# workload fleet-deny: stats_digest 3dbb
sweep.expand_ms                            0.014033 ms
sim.switches                          623437.000000 count
fleet.placed                           21504.000000 count
rm.admit_accept_ratio                      0.385000 ratio
rm.admit_deny_allocs                       1.000000 count
# workload paper-short: stats_digest 9453
sim.switches                         2680086.000000 count
`

func TestParseCountsKeepsWorkCountsPerWorkload(t *testing.T) {
	got, err := parseCounts(strings.NewReader(twoWorkloads))
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]counts{
		"fleet-deny":  {"sim.switches": 623437, "fleet.placed": 21504},
		"paper-short": {"sim.switches": 2680086},
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("parsed %v, want %v", got, want)
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
