package main

import (
	"bytes"
	"flag"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/sim"
	"repro/internal/task"
	"repro/internal/ticks"
	"repro/internal/trace"
)

var update = flag.Bool("update", false, "rewrite testdata/analyze.golden")

// sporadicTrace is a 100 ms run of a 10 ms/2 ms Sporadic Server
// serving one task that never yields, exported as rdsim -json would.
func sporadicTrace(t *testing.T) []byte {
	rec := trace.New()
	zero := sim.ZeroSwitchCosts()
	d := core.New(core.Config{SwitchCosts: &zero, Observer: rec})
	if _, err := d.AddSporadicServer("server", task.SingleLevel(10*ticks.PerMillisecond, 2*ticks.PerMillisecond, "SS"), true); err != nil {
		t.Fatal(err)
	}
	d.AddSporadic("soaker", task.BusySilent())
	d.Run(100 * ticks.PerMillisecond)
	var buf bytes.Buffer
	if err := rec.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestAnalyzeGolden pins the analysis verb's output over the trace
// package's two export goldens and a Sporadic-Server run. Regenerate
// with go test ./cmd/rdtrace -update.
func TestAnalyzeGolden(t *testing.T) {
	var got bytes.Buffer
	for _, name := range []string{"fig3.export.golden", "fig5.export.golden"} {
		doc, err := os.ReadFile(filepath.Join("..", "..", "internal", "trace", "testdata", name))
		if err != nil {
			t.Fatal(err)
		}
		got.WriteString("== " + name + "\n")
		if err := analyze(bytes.NewReader(doc), &got); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
	}
	got.WriteString("== sporadic server\n")
	if err := analyze(bytes.NewReader(sporadicTrace(t)), &got); err != nil {
		t.Fatal(err)
	}

	path := filepath.Join("testdata", "analyze.golden")
	if *update {
		if err := os.WriteFile(path, got.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run with -update to create)", err)
	}
	if !bytes.Equal(got.Bytes(), want) {
		t.Errorf("analysis differs from %s; rerun with -update and review the diff:\n%s", path, got.Bytes())
	}
}

func TestAnalyzeRejectsUnknownKind(t *testing.T) {
	err := analyze(strings.NewReader(`{"slices":[{"id":1,"from":0,"to":1,"kind":"bogus"}]}`), io.Discard)
	if err == nil || !strings.Contains(err.Error(), `"bogus"`) {
		t.Errorf("err = %v, want one naming \"bogus\"", err)
	}
}
