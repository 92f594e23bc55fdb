package main

import (
	"bytes"
	"encoding/json"
	"os"
	"strings"
	"testing"
)

// TestPerformanceDocIsRendered pins docs/PERFORMANCE.md's layer table to
// rdperf doc's rendering of the committed BENCH_kernel.json, the way
// rdbench's TestExperimentsDocQuotesGolden pins EXPERIMENTS.md: after
// `make bench`, or an edit of the layers in doc.go, re-render it with
// `go run ./cmd/rdperf doc -bench BENCH_kernel.json -doc docs/PERFORMANCE.md`.
// Every baseline row is in the table, and no other line of the
// document is a table row naming a benchmark.
func TestPerformanceDocIsRendered(t *testing.T) {
	raw, err := os.ReadFile("../../BENCH_kernel.json")
	if err != nil {
		t.Fatal(err)
	}
	var want bytes.Buffer
	if err := renderLayers(&want, raw); err != nil {
		t.Fatal(err)
	}
	text, err := os.ReadFile("../../docs/PERFORMANCE.md")
	if err != nil {
		t.Fatal(err)
	}
	before, after, err := splitDoc(string(text))
	if err != nil {
		t.Fatal(err)
	}
	got := string(text[len(before)+len(docBegin) : len(text)-len(after)-len(docEnd)])
	if got != want.String() {
		t.Errorf("docs/PERFORMANCE.md's layer table is not rdperf doc's rendering; re-render it.\ngot:\n%s\nwant:\n%s", got, want.String())
	}
	for i, line := range strings.Split(before+after, "\n") {
		if strings.HasPrefix(line, "|") && strings.Contains(line, "`Benchmark") {
			t.Errorf("docs/PERFORMANCE.md: a typed table row names a benchmark, outside the rendered table: %s (line %d of the rest)", line, i+1)
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

// TestDocNeedsEveryRow: a layer whose benchmark has no baseline row is
// an error, not an empty cell.
func TestDocNeedsEveryRow(t *testing.T) {
	raw := []byte(`{"schema": "rdperf/v1", "sections": {"current": {"BenchmarkEventQueue": {"allocs/op": 1, "B/op": 64}}}}`)
	if err := renderLayers(&bytes.Buffer{}, raw); err == nil || !strings.Contains(err.Error(), "BenchmarkKernelStep") {
		t.Errorf("rendering against a baseline without BenchmarkKernelStep: %v", err)
	}
}
