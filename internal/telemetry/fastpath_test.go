package telemetry_test

import (
	"bytes"
	"os"
	"reflect"
	"runtime"
	"testing"

	"repro/internal/sweep"
	"repro/internal/telemetry"
	"repro/internal/ticks"
)

// TestValidatePerfettoTakesFastPath: ValidatePerfetto's one-pass fast
// path itself, not the encoding/json fallback, accepts what
// WritePerfetto writes for the settop golden, a fleet-crash cluster
// (spans from 120 nodes and the coordinator, causal flows) and the
// black box of one of its nodes opened as a trace (a ring's spans, with
// links and parents it evicted). A writer change that moved validation
// back onto encoding/json would otherwise show only as a slower
// cluster-manifest set-up.
func TestValidatePerfettoTakesFastPath(t *testing.T) {
	golden, err := os.ReadFile("testdata/settop-smoke.perfetto.golden")
	if err != nil {
		t.Fatal(err)
	}
	c, _, err := sweep.RunFleetCluster(sweep.RunSpec{
		Scenario: "fleet-crash", CostModel: "paper", Policy: sweep.PolicyFleetLeastLoaded,
		Seed: 1, Horizon: 500 * ticks.PerMillisecond,
	}, 1)
	if err != nil {
		t.Fatal(err)
	}
	cluster, err := c.Manifest()
	if err != nil {
		t.Fatal(err)
	}
	if len(cluster.FlightDumps) == 0 {
		t.Fatal("the fleet-crash run left no flight dump")
	}
	d := &cluster.FlightDumps[0]
	dump := &telemetry.Manifest{
		Schema: telemetry.SchemaVersion, HorizonTicks: d.At, NodeCount: cluster.NodeCount,
		Tasks: cluster.Tasks, Spans: d.Spans, Events: d.Events,
	}
	export := func(m *telemetry.Manifest) []byte {
		var buf bytes.Buffer
		if err := telemetry.WritePerfetto(&buf, m); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	for _, doc := range []struct {
		name string
		data []byte
	}{{"settop golden", golden}, {"fleet-crash cluster", export(cluster)}, {"flight dump", export(dump)}} {
		if !telemetry.PerfettoCanonical(doc.data) {
			t.Errorf("%s: the fast path refused it (ValidatePerfetto: %v)", doc.name, telemetry.ValidatePerfetto(bytes.NewReader(doc.data)))
		}
	}
}

// TestCodecIndependentOfGOMAXPROCS: a 2 s fleet-crash cluster's
// manifest bytes, its Perfetto export and the manifest read back are
// the same at GOMAXPROCS 1, 2, 3 and 8 — the chunk runner and the split
// reader change who does the work, not the result. At 2 both must
// really have run, so a threshold change cannot quietly turn them off.
func TestCodecIndependentOfGOMAXPROCS(t *testing.T) {
	c, _, err := sweep.RunFleetCluster(sweep.RunSpec{
		Scenario: "fleet-crash", CostModel: "paper", Policy: sweep.PolicyFleetLeastLoaded,
		Seed: 1, Horizon: 2000 * ticks.PerMillisecond,
	}, 1)
	if err != nil {
		t.Fatal(err)
	}
	m, err := c.Manifest()
	if err != nil {
		t.Fatal(err)
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	var first struct {
		manifest, export []byte
		back             *telemetry.Manifest
	}
	for _, procs := range []int{1, 2, 3, 8} {
		runtime.GOMAXPROCS(procs)
		var manifest, export bytes.Buffer
		wrote, err := telemetry.WriteJSONChunks(&manifest, m)
		if err != nil {
			t.Fatal(err)
		}
		back, parts, err := telemetry.ReadManifestParts(manifest.Bytes())
		if err != nil {
			t.Fatal(err)
		}
		exported, err := telemetry.WritePerfettoChunks(&export, back)
		if err != nil {
			t.Fatal(err)
		}
		if procs == 2 && (wrote == 0 || parts != 2 || exported == 0) {
			t.Errorf("GOMAXPROCS 2, %d spans: the manifest was written in %d parallel chunks, read in %d parts, exported in %d chunks",
				len(m.Spans), wrote, parts, exported)
		}
		if first.back == nil {
			first.manifest, first.export, first.back = manifest.Bytes(), export.Bytes(), back
			continue
		}
		if !bytes.Equal(manifest.Bytes(), first.manifest) {
			t.Errorf("GOMAXPROCS %d: the manifest differs from GOMAXPROCS 1's", procs)
		}
		if !bytes.Equal(export.Bytes(), first.export) {
			t.Errorf("GOMAXPROCS %d: the Perfetto export differs from GOMAXPROCS 1's", procs)
		}
		if !reflect.DeepEqual(back, first.back) {
			t.Errorf("GOMAXPROCS %d: the manifest read back differs from GOMAXPROCS 1's", procs)
		}
	}
}
