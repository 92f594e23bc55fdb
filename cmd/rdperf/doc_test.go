package main

import (
	"bytes"
	"encoding/json"
	"io"
	"maps"
	"os"
	"strings"
	"testing"
)

// TestPerformanceDocIsRendered pins docs/PERFORMANCE.md's layer table to
// rdperf doc's rendering of the committed BENCH_kernel.json, and its
// workload table to that of BENCH_counts.json's allocation rates, the
// way rdbench's TestExperimentsDocQuotesGolden pins EXPERIMENTS.md:
// after `make bench` or `rdperf counts -out`, or an edit of the layers
// or workloads in doc.go, re-render them with `go run ./cmd/rdperf doc
// -bench BENCH_kernel.json -counts BENCH_counts.json -doc
// docs/PERFORMANCE.md`. Every baseline row is in the layer table, and
// no other line of the document is a table row naming a benchmark or a
// workload's allocation rate.
func TestPerformanceDocIsRendered(t *testing.T) {
	raw, err := os.ReadFile("../../BENCH_kernel.json")
	if err != nil {
		t.Fatal(err)
	}
	counts, err := os.ReadFile("../../BENCH_counts.json")
	if err != nil {
		t.Fatal(err)
	}
	text, err := os.ReadFile("../../docs/PERFORMANCE.md")
	if err != nil {
		t.Fatal(err)
	}
	rest := string(text)
	for _, tc := range []struct {
		name, begin, end string
		render           func(io.Writer, []byte) error
		raw              []byte
	}{
		{"layer", docBegin, docEnd, renderLayers, raw},
		{"workload", workloadsBegin, workloadsEnd, renderWorkloads, counts},
	} {
		var want bytes.Buffer
		if err := tc.render(&want, tc.raw); err != nil {
			t.Fatal(err)
		}
		before, after, err := splitDoc(rest, tc.begin, tc.end)
		if err != nil {
			t.Fatal(err)
		}
		if got := rest[len(before)+len(tc.begin) : len(rest)-len(after)-len(tc.end)]; got != want.String() {
			t.Errorf("docs/PERFORMANCE.md's %s table is not rdperf doc's rendering; re-render it.\ngot:\n%s\nwant:\n%s", tc.name, got, want.String())
		}
		rest = before + after
	}
	for i, line := range strings.Split(rest, "\n") {
		if strings.HasPrefix(line, "|") && (strings.Contains(line, "`Benchmark") || strings.Contains(line, "allocs/run")) {
			t.Errorf("docs/PERFORMANCE.md: a typed table row names a benchmark or an allocation rate, outside the rendered tables: %s (line %d of the rest)", line, i+1)
		}
	}
	var bf benchFile
	if err := json.Unmarshal(raw, &bf); err != nil {
		t.Fatal(err)
	}
	listed := map[string]bool{}
	for _, l := range layers {
		for _, b := range l.benches {
			listed[b] = true
		}
	}
	for name := range bf.Sections[baseline] {
		if !listed[name] {
			t.Errorf("BENCH_kernel.json row %s is in no layer of the table", name)
		}
	}
}

// TestDocNeedsEveryWorkload: the workload table renders the allocation
// rates of exactly the workloads it lists; one rated but unlisted, or
// listed but unrated, is an error.
func TestDocNeedsEveryWorkload(t *testing.T) {
	all := map[string]allocRates{}
	for _, wl := range workloads {
		all[wl.name] = allocRates{"allocs_per_run": 1, "alloc_kb_per_run": 1}
	}
	render := func(allocs map[string]allocRates) error {
		raw, err := json.Marshal(countsFile{Schema: "rdperf-counts/v1", Allocs: allocs})
		if err != nil {
			t.Fatal(err)
		}
		return renderWorkloads(&bytes.Buffer{}, raw)
	}
	if err := render(all); err != nil {
		t.Fatalf("every workload rated: %v", err)
	}
	extra, missing := maps.Clone(all), maps.Clone(all)
	extra["fleet-new"] = allocRates{}
	delete(missing, "fleet-wide")
	if render(extra) == nil || render(missing) == nil {
		t.Error("a workload rated but not listed, or listed but not rated, renders without error")
	}
}

// TestDocNeedsEveryRow: a layer whose benchmark has no baseline row is
// an error, not an empty cell.
func TestDocNeedsEveryRow(t *testing.T) {
	raw := []byte(`{"schema": "rdperf/v1", "sections": {"current": {"BenchmarkEventQueue": {"allocs/op": 1, "B/op": 64}}}}`)
	if err := renderLayers(&bytes.Buffer{}, raw); err == nil || !strings.Contains(err.Error(), "BenchmarkKernelStep") {
		t.Errorf("rendering against a baseline without BenchmarkKernelStep: %v", err)
	}
}
