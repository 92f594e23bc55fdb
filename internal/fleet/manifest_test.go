package fleet_test

import (
	"bytes"
	"encoding/json"
	"reflect"
	"testing"

	"repro/internal/fault"
	"repro/internal/fleet"
	"repro/internal/task"
	"repro/internal/telemetry"
	"repro/internal/ticks"
)

// crashFleet builds the 4-node crash-recovery cluster from
// TestCrashRecoveryReplacesGuarantees with full span logging: first-fit
// packs node 0 with 5 guarantees, the crash strands them, and all 5
// recover onto siblings — every recovered guarantee carries a
// cross-node causal chain.
func crashFleet(t *testing.T, workers int) (*fleet.Cluster, *fleet.Report) {
	t.Helper()
	return crashFleetIn(t, new(fleet.Arena), fleet.Config{
		Nodes: 4, Seed: 1, Workers: workers, Invariants: true, SpanLog: true,
	}, 50*ms, 200*ms)
}

// crashFleetIn is crashFleet built in arena a from cfg, with node 0
// crashing at crashAt of a run to horizon.
func crashFleetIn(t *testing.T, a *fleet.Arena, cfg fleet.Config, crashAt, horizon ticks.Ticks) (*fleet.Cluster, *fleet.Report) {
	t.Helper()
	c, err := fleet.NewIn(a, cfg)
	if err != nil {
		t.Fatalf("new cluster: %v", err)
	}
	var alog telemetry.EventLog
	if err := fault.ArmFleet(c, 1, &alog,
		fault.NodeCrash{Node: 0, At: crashAt, Cycles: 1, MeanUp: 200 * ms, MeanDown: 30 * ms}); err != nil {
		t.Fatalf("arm: %v", err)
	}
	for i := 0; i < 8; i++ {
		mustSubmit(t, c, fleet.Admission{
			At:   0,
			Name: "g" + string(rune('0'+i)),
			List: task.SingleLevel(10*ms, 2*ms, "Fleet"), // 20% each
			Body: steadyBody(),
		})
	}
	rep := c.Run(horizon)
	if len(rep.Stalled) != 0 {
		t.Fatalf("stalled: %v", rep.Stalled)
	}
	return c, rep
}

// chainWalk follows a span's causal Link edges backwards through a
// stitched cluster manifest, returning the span names visited (newest
// first) and the set of distinct fleet-node tags on the chain.
func chainWalk(byID map[telemetry.SpanID]telemetry.Span, from telemetry.Span) (names []string, nodes map[int32]bool) {
	nodes = map[int32]bool{}
	for sp, ok := from, true; ok; sp, ok = byID[sp.Link] {
		names = append(names, sp.Name)
		if sp.Node > 0 {
			nodes[sp.Node] = true
		}
		if sp.Link == 0 {
			break
		}
	}
	return names, nodes
}

// The tentpole acceptance check: a crash-recovered guarantee resolves,
// in the stitched rdtel/v2 cluster manifest, to ONE causally linked
// span chain that crosses nodes — the new node's admission span links
// back through the coordinator's recover and crash-readmit decisions
// to the original node's admission span — and the crash's black-box
// dump rides in the same manifest and passes schema validation.
func TestClusterManifestCausalChainAcrossCrash(t *testing.T) {
	c, rep := crashFleet(t, 2)
	if rep.Recovered == 0 {
		t.Fatalf("no guarantee recovered, nothing to chain: %s", rep.Summary())
	}

	m, err := c.Manifest()
	if err != nil {
		t.Fatalf("manifest: %v", err)
	}
	if err := telemetry.ValidateManifest(m); err != nil {
		t.Fatalf("stitched cluster manifest fails validation: %v", err)
	}
	if m.Schema != telemetry.SchemaVersion || m.NodeCount != 4 {
		t.Fatalf("cluster manifest header: schema=%q node_count=%d", m.Schema, m.NodeCount)
	}

	// The crash dump: present in the report, attached to the manifest,
	// attributed to the crashed node, and counted in the totals. (The
	// manifest as a whole validated above, which includes every dump's
	// ring contiguity and drop accounting — the "validates against the
	// manifest schema" half of the acceptance bar.)
	crashDumps := 0
	for _, d := range m.FlightDumps {
		if d.Reason == "node-crash" && d.Node == telemetry.NodeTag(0) {
			crashDumps++
		}
	}
	if crashDumps != 1 {
		t.Fatalf("want exactly 1 node-crash dump from node 0, got %d (of %d dumps)", crashDumps, len(m.FlightDumps))
	}
	if len(m.FlightDumps) != len(rep.FlightDumps) {
		t.Fatalf("manifest carries %d dumps, report %d", len(m.FlightDumps), len(rep.FlightDumps))
	}
	if m.Totals.FlightDumps != int64(len(m.FlightDumps)) {
		t.Fatalf("Totals.FlightDumps = %d, want %d", m.Totals.FlightDumps, len(m.FlightDumps))
	}

	// Walk every admission span's chain; a recovered guarantee's reads
	// adm@sibling <- recover(coord) <- crash-readmit(coord) <-
	// adm@node0 <- place(coord), touching two distinct nodes.
	byID := make(map[telemetry.SpanID]telemetry.Span, len(m.Spans))
	for _, sp := range m.Spans {
		byID[sp.ID] = sp
	}
	recovered := 0
	for _, sp := range m.Spans {
		if sp.Cat != "admission" {
			continue
		}
		names, nodes := chainWalk(byID, sp)
		readmit := false
		for _, n := range names {
			if n == "crash-readmit" {
				readmit = true
			}
		}
		if !readmit {
			continue
		}
		if len(nodes) < 2 {
			t.Fatalf("crash-recovery chain stays on one node: names=%v nodes=%v", names, nodes)
		}
		if !nodes[telemetry.NodeTag(0)] {
			t.Fatalf("recovery chain never reaches the crashed node 0: names=%v nodes=%v", names, nodes)
		}
		recovered++
	}
	if int64(recovered) != rep.Recovered {
		t.Fatalf("found %d cross-node recovery chains, report says %d recoveries", recovered, rep.Recovered)
	}
}

// A pressure migration produces the same shape of cross-node chain:
// the target node's admission span links back through the
// coordinator's migrate decision to the source node's admission span.
func TestClusterManifestCausalChainAcrossMigration(t *testing.T) {
	c := mustNew(t, fleet.Config{
		Nodes:                   2,
		Seed:                    11,
		Workers:                 1,
		InterruptReservePercent: 2,
		GovernorInterval:        5 * ms,
		Invariants:              true,
		SpanLog:                 true,
	})
	var alog telemetry.EventLog
	if err := fault.ArmFleet(c, 11, &alog,
		fault.NodeStorm{
			Storm:     fault.Storm{At: 30 * ms, Bursts: 10, Every: 5 * ms, Count: 8, Service: 250 * ticks.PerMicrosecond},
			FirstNode: 0, Nodes: 1,
		}); err != nil {
		t.Fatalf("arm: %v", err)
	}
	for i := 0; i < 3; i++ {
		mustSubmit(t, c, fleet.Admission{
			At: 0, Name: "m" + string(rune('0'+i)),
			List: task.UniformLevels(10*ms, "Fleet", 20, 10),
			Body: steadyBody(),
		})
	}
	rep := c.Run(200 * ms)
	if rep.Migrations == 0 {
		t.Fatalf("pressure never triggered a migration: %s", rep.Summary())
	}
	m, err := c.Manifest()
	if err != nil {
		t.Fatalf("manifest: %v", err)
	}
	if err := telemetry.ValidateManifest(m); err != nil {
		t.Fatalf("stitched cluster manifest fails validation: %v", err)
	}
	byID := make(map[telemetry.SpanID]telemetry.Span, len(m.Spans))
	for _, sp := range m.Spans {
		byID[sp.ID] = sp
	}
	migrated := 0
	for _, sp := range m.Spans {
		if sp.Cat != "admission" {
			continue
		}
		names, nodes := chainWalk(byID, sp)
		for _, n := range names {
			if n == "migrate" && len(nodes) >= 2 {
				migrated++
				break
			}
		}
	}
	if migrated == 0 {
		t.Fatalf("no admission span chains across a migrate decision to a second node")
	}
}

// The worker-invariance contract extends to the observability layer:
// the stitched cluster manifest's bytes and every per-node telemetry
// snapshot in the report are identical for any node worker count,
// under first-fit (the zero Placement, whose skew makes workers steal)
// and least-loaded.
func TestManifestAndPerNodeWorkerInvariance(t *testing.T) {
	for _, p := range []fleet.Placement{fleet.FirstFit, fleet.LeastLoaded} {
		var refManifest, refPerNode []byte
		for _, workers := range []int{1, 2, 3, 4} {
			c, rep := crashFleetIn(t, new(fleet.Arena), fleet.Config{
				Nodes: 4, Seed: 1, Workers: workers, Placement: p, Invariants: true, SpanLog: true,
			}, 50*ms, 200*ms)
			m, err := c.Manifest()
			if err != nil {
				t.Fatalf("%s, workers=%d: manifest: %v", p, workers, err)
			}
			var buf bytes.Buffer
			if err := m.WriteJSON(&buf); err != nil {
				t.Fatalf("%s, workers=%d: write: %v", p, workers, err)
			}
			var snaps []*telemetry.Snapshot
			for i := 0; i < c.NodeCount(); i++ {
				snaps = append(snaps, nodeMetrics(t, c, i))
			}
			if len(snaps) != 4 || len(rep.Telemetry.Counters) == 0 {
				t.Fatalf("%s, workers=%d: %d node snapshots, %d cluster counters", p, workers, len(snaps), len(rep.Telemetry.Counters))
			}
			perNode, err := json.Marshal(snaps)
			if err != nil {
				t.Fatalf("%s, workers=%d: marshal per-node: %v", p, workers, err)
			}
			if refManifest == nil {
				refManifest, refPerNode = buf.Bytes(), perNode
				continue
			}
			if !bytes.Equal(buf.Bytes(), refManifest) {
				t.Errorf("%s, workers=%d: stitched cluster manifest diverged from workers=1", p, workers)
			}
			if !bytes.Equal(perNode, refPerNode) {
				t.Errorf("%s, workers=%d: per-node telemetry snapshots diverged from workers=1", p, workers)
			}
		}
	}
}

// A black box dumps the same history whether it is the node's span log
// (the default) or fronts the full log SpanLog keeps.
func TestFlightDumpsIgnoreSpanLog(t *testing.T) {
	a := new(fleet.Arena)
	cfg := fleet.Config{Nodes: 4, Seed: 1, Workers: 1, Invariants: true}
	_, off := crashFleetIn(t, a, cfg, 400*ms, 500*ms)
	cfg.SpanLog = true
	_, on := crashFleetIn(t, a, cfg, 400*ms, 500*ms)
	evicted := false
	for _, d := range on.FlightDumps {
		evicted = evicted || d.SpansDropped > 0
	}
	if !evicted {
		t.Fatalf("no dump of the %d had wrapped its ring; the comparison needs one that has", len(on.FlightDumps))
	}
	if !reflect.DeepEqual(on.FlightDumps, off.FlightDumps) {
		t.Error("flight dumps differ between SpanLog on and off")
	}
}

// Cluster.Manifest stitches the cluster's span logs where they lie;
// writing its per-part manifests to JSON and restitching them (what
// `rdtrace stitch` does with the files rdsweep writes) must reproduce
// the live cluster manifest byte for byte — with full span logs that
// fill several storage blocks per node, and with flight rings only,
// which have wrapped.
func TestStitchOfWrittenPartsMatchesLiveManifest(t *testing.T) {
	for _, spanLog := range []bool{true, false} {
		cfg := fleet.Config{Nodes: 4, Seed: 1, Workers: 2, Invariants: true, SpanLog: spanLog}
		c, _ := crashFleetIn(t, new(fleet.Arena), cfg, 50*ms, 2000*ms)
		live, err := c.Manifest()
		if err != nil {
			t.Fatalf("manifest: %v", err)
		}

		roundtrip := func(m *telemetry.Manifest) *telemetry.Manifest {
			t.Helper()
			var buf bytes.Buffer
			if err := m.WriteJSON(&buf); err != nil {
				t.Fatalf("write part: %v", err)
			}
			back, err := telemetry.ReadManifest(&buf)
			if err != nil {
				t.Fatalf("reread part: %v", err)
			}
			return back
		}

		coord, err := c.CoordManifest()
		if err != nil {
			t.Fatalf("coord manifest: %v", err)
		}
		nodes := make([]*telemetry.Manifest, c.NodeCount())
		longest, wrapped := 0, false
		for i := range nodes {
			nm, err := c.NodeManifest(i)
			if err != nil {
				t.Fatalf("node %d manifest: %v", i, err)
			}
			longest = max(longest, len(nm.Spans))
			wrapped = wrapped || len(nm.Spans) > 0 && nm.Spans[0].ID > 1
			nodes[i] = roundtrip(nm)
		}
		if spanLog && longest < 3*256 || !spanLog && !wrapped {
			t.Fatalf("SpanLog %v: the longest node log holds %d spans, a ring wrapped = %v; the case needs longer logs", spanLog, longest, wrapped)
		}
		stitched, err := telemetry.StitchCluster(roundtrip(coord), nodes)
		if err != nil {
			t.Fatalf("stitch: %v", err)
		}

		var a, b bytes.Buffer
		if err := live.WriteJSON(&a); err != nil {
			t.Fatalf("write live: %v", err)
		}
		if err := stitched.WriteJSON(&b); err != nil {
			t.Fatalf("write stitched: %v", err)
		}
		if !bytes.Equal(a.Bytes(), b.Bytes()) {
			t.Fatalf("SpanLog %v: stitching the written per-part manifests diverged from the live cluster manifest", spanLog)
		}
	}
}

// A manifest's config digest hashes the settings that shape a run,
// fixed ones included; these values pin its bytes.
func TestConfigDigestPinned(t *testing.T) {
	for _, tc := range []struct {
		cfg  fleet.Config
		want string
	}{
		{fleet.Config{Nodes: 2, Seed: 1, Workers: 1}, "8114486bd5314864"},
		{fleet.Config{Nodes: 120, Seed: 7, Workers: 1, InterruptReservePercent: 2,
			GovernorInterval: 10 * ms, Invariants: true}, "1429a24ea07c30fc"},
	} {
		c := mustNew(t, tc.cfg)
		c.Run(10 * ms)
		m, err := c.CoordManifest()
		if err != nil {
			t.Fatal(err)
		}
		if m.ConfigDigest != tc.want {
			t.Errorf("%+v: config digest %s, want %s", tc.cfg, m.ConfigDigest, tc.want)
		}
	}
}
