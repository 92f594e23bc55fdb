package main

import (
	"bytes"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/fleet"
	"repro/internal/sim"
	"repro/internal/task"
	"repro/internal/telemetry"
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

// settopManifest is the telemetry package's settop golden, read back.
func settopManifest(t *testing.T) *telemetry.Manifest {
	t.Helper()
	f, err := os.Open(filepath.Join("..", "..", "internal", "telemetry", "testdata", "settop-smoke.manifest.golden"))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	m, err := telemetry.ReadManifest(f)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// fleetManifest is the stitched manifest of a two-node fleet that
// placed three guarantees: each node-side admission links back to the
// coordinator's placement decision.
func fleetManifest(t *testing.T) *telemetry.Manifest {
	t.Helper()
	const ms = ticks.PerMillisecond
	c, err := fleet.New(fleet.Config{Nodes: 2, Seed: 1, Workers: 1, SpanLog: true})
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"g0", "g1", "g2"} {
		if err := c.Submit(fleet.Admission{Name: name, List: task.SingleLevel(10*ms, 4*ms, "Fleet"), Body: fleet.BodyFunc(task.YieldAll)}); err != nil {
			t.Fatal(err)
		}
	}
	c.Run(50 * ms)
	m, err := c.Manifest()
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// runQuery runs query and returns its output lines, the last of which
// is the "N of M spans matched" summary.
func runQuery(t *testing.T, m *telemetry.Manifest, q queryFlags) []string {
	t.Helper()
	var out bytes.Buffer
	if err := query(m, q, &out); err != nil {
		t.Fatalf("query %+v: %v", q, err)
	}
	return strings.Split(strings.TrimSuffix(out.String(), "\n"), "\n")
}

// count returns how many of m's spans keep says yes to.
func count(m *telemetry.Manifest, keep func(*telemetry.Span) bool) int {
	n := 0
	for i := range m.Spans {
		if keep(&m.Spans[i]) {
			n++
		}
	}
	return n
}

func TestQueryFilters(t *testing.T) {
	settop := settopManifest(t)
	dispatches := count(settop, func(sp *telemetry.Span) bool { return sp.Cat == "dispatch" })
	lines := runQuery(t, settop, queryFlags{cat: "dispatch"})
	if want := fmt.Sprintf("%d of %d spans matched", dispatches, len(settop.Spans)); dispatches == 0 || lines[len(lines)-1] != want {
		t.Errorf("-cat dispatch: summary %q, want %q", lines[len(lines)-1], want)
	}
	if len(lines) != dispatches+1 {
		t.Errorf("-cat dispatch printed %d span lines, want %d", len(lines)-1, dispatches)
	}

	m := fleetManifest(t)
	coord := count(m, func(sp *telemetry.Span) bool { return sp.Node == telemetry.CoordTag })
	lines = runQuery(t, m, queryFlags{node: "coord"})
	if want := fmt.Sprintf("%d of %d spans matched", coord, len(m.Spans)); coord == 0 || lines[len(lines)-1] != want {
		t.Errorf("-node coord: summary %q, want %q", lines[len(lines)-1], want)
	}
	for _, l := range lines[:len(lines)-1] {
		if f := strings.Fields(l); len(f) < 2 || f[1] != "coord" {
			t.Errorf("-node coord printed %q", l)
		}
	}
}

// -chain prints, under each matching span, the spans its links lead
// back to: a node's admission to the coordinator's placement.
func TestQueryChainWalksLinksBack(t *testing.T) {
	m := fleetManifest(t)
	lines := runQuery(t, m, queryFlags{node: "1", cat: "admission", chain: true})
	links := 0
	for _, l := range lines[:len(lines)-1] {
		if rest, ok := strings.CutPrefix(l, "    <- "); ok {
			links++
			if f := strings.Fields(rest); len(f) < 3 || f[1] != "coord" || f[2] != "fleet" {
				t.Errorf("chain line %q is not a coordinator fleet span", l)
			}
		} else if f := strings.Fields(l); len(f) < 4 || f[1] != "node" || f[2] != "1" || f[3] != "admission" {
			t.Errorf("match %q is not a node 1 admission", l)
		}
	}
	if links == 0 {
		t.Fatalf("no <- line in\n%s", strings.Join(lines, "\n"))
	}
}

// A node or task the manifest does not hold is refused, not matched
// by nothing.
func TestQueryRefusesWhatIsNotThere(t *testing.T) {
	settop, m := settopManifest(t), fleetManifest(t)
	for _, tc := range []struct {
		name string
		m    *telemetry.Manifest
		q    queryFlags
		want string
	}{
		{"node past the fleet", m, queryFlags{node: "2"}, "-node 2 is outside the manifest's 2 fleet nodes"},
		{"node of a single-node manifest", settop, queryFlags{node: "0"}, "-node 0 is outside the manifest's 0 fleet nodes"},
		{"unknown task", settop, queryFlags{task: "nosuch"}, `no task "nosuch" in manifest`},
	} {
		if err := query(tc.m, tc.q, io.Discard); err == nil || err.Error() != tc.want {
			t.Errorf("%s: err = %v, want %q", tc.name, err, tc.want)
		}
	}
}
