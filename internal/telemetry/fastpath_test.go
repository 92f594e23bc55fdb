package telemetry_test

import (
	"bytes"
	"os"
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
