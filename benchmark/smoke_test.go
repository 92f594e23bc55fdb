package main

import (
	"encoding/json"
	"io"
	"math"
	"os"
	"regexp"
	"strings"
	"testing"

	"repro/internal/ticks"
)

// small shrinks a workload to 2 seeds per cell and a 200 ms horizon,
// so every code path of the harness runs in about a second. A 120-node
// fleet costs ~50 ms to build whatever the horizon, so the two
// workloads built on fleet-crash keep one cell, and the manifest one
// moves to the 16-node fleet: it is the harness that is under test.
func small(w workload) workload {
	w.matrix.Horizon = ticks.FromMilliseconds(200)
	w.warmSeeds, w.roundSeeds = 2, 2
	if w.matrix.Scenarios[0] == "fleet-crash" {
		w.matrix.CostModels, w.matrix.Policies = []string{"paper"}, placements[:1]
		w.warmSeeds, w.roundSeeds = 1, 1
	}
	if w.manifest {
		w.matrix.Scenarios = []string{"fleet-spill"}
	}
	return w
}

func smallConfig(t *testing.T, w workload, trace bool) config {
	return config{w: small(w), seed: 1, seconds: 0.02, trace: trace, outDir: t.TempDir(), log: io.Discard}
}

type declared struct {
	Workloads []struct{ Name string }       `json:"workloads"`
	EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
}

func readDeclared(t *testing.T) declared {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var d declared
	if err := json.Unmarshal(data, &d); err != nil {
		t.Fatal(err)
	}
	return d
}

// TestSmoke runs every workload, untraced and traced, and holds the
// program to BENCHMARK.json: the declared workloads exist, and each
// declared metric is emitted exactly once, finite, under a legal name
// and with the declared unit.
func TestSmoke(t *testing.T) {
	d := readDeclared(t)
	ws := workloads()
	if len(ws) != len(d.Workloads) {
		t.Fatalf("%d workloads, BENCHMARK.json declares %d", len(ws), len(d.Workloads))
	}
	legal := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]*$`)
	for i, w := range ws {
		if w.name != d.Workloads[i].Name {
			t.Errorf("workload %d is %s, BENCHMARK.json declares %s", i, w.name, d.Workloads[i].Name)
		}
		for _, trace := range []bool{false, true} {
			want := d.EndToEnd
			if trace {
				want = d.PerLayer
			}
			rep, err := runWorkload(smallConfig(t, w, trace))
			if err != nil {
				t.Fatalf("%s trace=%v: %v", w.name, trace, err)
			}
			if !rep.correct {
				t.Errorf("%s trace=%v: wrong output: %v", w.name, trace, rep.problems)
			}
			if rep.attempted < 1 || rep.failed != 0 {
				t.Errorf("%s trace=%v: attempted %d, failed %d", w.name, trace, rep.attempted, rep.failed)
			}
			seen := map[string]int{}
			units := map[string]string{}
			shares := 0.0
			for _, m := range rep.metrics {
				seen[m.Name]++
				units[m.Name] = m.Unit
				if !legal.MatchString(m.Name) || len(m.Name) > 64 {
					t.Errorf("%s: metric name %q is outside [A-Za-z0-9_.-]{1,64}", w.name, m.Name)
				}
				if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
					t.Errorf("%s: metric %s = %v", w.name, m.Name, m.Value)
				}
				if !trace && m.Value == 0 {
					t.Errorf("%s: end-to-end metric %s is 0", w.name, m.Name)
				}
				if strings.HasSuffix(m.Name, ".cpu_share") || m.Name == shareGC || m.Name == shareAlloc {
					shares += m.Value
				}
			}
			for _, m := range want {
				if seen[m.Name] != 1 {
					t.Errorf("%s trace=%v: declared metric %s emitted %d times", w.name, trace, m.Name, seen[m.Name])
				}
				if units[m.Name] != m.Unit {
					t.Errorf("%s: metric %s has unit %q, declared %q", w.name, m.Name, units[m.Name], m.Unit)
				}
			}
			if len(rep.metrics) != len(want) {
				t.Errorf("%s trace=%v: %d metrics emitted, %d declared", w.name, trace, len(rep.metrics), len(want))
			}
			if trace && math.Abs(shares-1) > 0.01 {
				t.Errorf("%s: cpu shares sum to %v, want 1", w.name, shares)
			}
		}
	}
}

// TestGateTrips corrupts the committed digest and expects the run to
// be reported wrong.
func TestGateTrips(t *testing.T) {
	w, err := workloadByName("paper-short")
	if err != nil {
		t.Fatal(err)
	}
	cfg := smallConfig(t, w, false)
	cfg.wantDigest = strings.Repeat("0", 64)
	rep, err := runWorkload(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if rep.correct {
		t.Fatal("a wrong stats_digest was reported correct")
	}
	if len(rep.problems) != 1 || !strings.Contains(rep.problems[0], "stats_digest") {
		t.Fatalf("problems = %v, want one stats_digest mismatch", rep.problems)
	}
	cfg.wantDigest = rep.digest
	if rep, err = runWorkload(cfg); err != nil || !rep.correct {
		t.Fatalf("the run's own digest was rejected: %v %v", err, rep)
	}
}

// TestCommittedDigests checks baseline.json names a digest for every
// workload, so -seed 1 always has something to compare with.
func TestCommittedDigests(t *testing.T) {
	for _, w := range workloads() {
		d, err := committedDigest(w.name)
		if err != nil {
			t.Error(err)
		} else if len(d) != 64 {
			t.Errorf("%s: stats_digest %q is not a SHA-256", w.name, d)
		}
	}
}
