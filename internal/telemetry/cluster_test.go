package telemetry

import (
	"reflect"
	"strings"
	"testing"
)

// mkManifest builds a bare manifest with the given node tag and spans.
func mkManifest(tag int32, spans ...Span) *Manifest {
	m := NewManifest(7)
	m.Node = tag
	m.Spans = spans
	return m
}

func TestStitchClusterRebasesAndResolvesLinks(t *testing.T) {
	// Coordinator: a "place" decision (span 1) and a "migrate" decision
	// (span 2) chained onto node 0's admission span.
	coord := mkManifest(CoordTag,
		Span{ID: 1, Cat: "fleet", Name: "place", Task: NoTask, Begin: 10, End: 10},
		Span{ID: 2, Cat: "fleet", Name: "migrate", Task: NoTask, Begin: 50, End: 50,
			Link: 4, LinkNode: NodeTag(0)},
	)
	// Node 0: an evicted prefix (ring lo=3) and an admission span that
	// links back to the coordinator's place decision.
	n0 := mkManifest(NodeTag(0),
		Span{ID: 3, Cat: "other", Name: "x", Task: NoTask, Begin: 11, End: 12},
		Span{ID: 4, Cat: "admission", Name: "t", Task: 1, Begin: 12, End: 12,
			Link: 1, LinkNode: CoordTag},
	)
	// Node 1: the post-migration admission, linked to the coordinator's
	// migrate decision.
	n1 := mkManifest(NodeTag(1),
		Span{ID: 1, Cat: "admission", Name: "t", Task: 1, Begin: 55, End: 55,
			Link: 2, LinkNode: CoordTag},
	)
	coord.Tasks = []TaskInfo{}
	n1.Tasks = []TaskInfo{{ID: 1, Name: "t"}}

	out, err := StitchCluster(coord, []*Manifest{n0, n1})
	if err != nil {
		t.Fatal(err)
	}
	if out.NodeCount != 2 || len(out.Spans) != 5 {
		t.Fatalf("NodeCount=%d spans=%d, want 2/5", out.NodeCount, len(out.Spans))
	}
	// Global IDs: coord 1-2, node0 3-4, node1 5; every span tagged.
	wantTags := []int32{CoordTag, CoordTag, NodeTag(0), NodeTag(0), NodeTag(1)}
	for i, sp := range out.Spans {
		if sp.ID != SpanID(i+1) {
			t.Fatalf("span %d global ID = %d, want %d", i, sp.ID, i+1)
		}
		if sp.Node != wantTags[i] {
			t.Fatalf("span %d tag = %d, want %d", i, sp.Node, wantTags[i])
		}
		if sp.LinkNode != 0 {
			t.Fatalf("span %d LinkNode survives stitching: %+v", i, sp)
		}
	}
	// Causal chain: adm@n1 (gid 5) -> migrate (gid 2) -> adm@n0 (gid 4)
	// -> place (gid 1).
	if out.Spans[4].Link != 2 || out.Spans[1].Link != 4 || out.Spans[3].Link != 1 {
		t.Fatalf("links misresolved: %+v", out.Spans)
	}
	// The stitched task list is node-tagged.
	if len(out.Tasks) != 1 || out.Tasks[0].Node != NodeTag(1) {
		t.Fatalf("tasks: %+v", out.Tasks)
	}
	if err := ValidateManifest(out); err != nil {
		t.Fatalf("stitched manifest invalid: %v", err)
	}

	// Pure function: stitching the same inputs twice is byte-identical.
	var a, b strings.Builder
	if err := out.WriteJSON(&a); err != nil {
		t.Fatal(err)
	}
	again, err := StitchCluster(coord, []*Manifest{n0, n1})
	if err != nil {
		t.Fatal(err)
	}
	if err := again.WriteJSON(&b); err != nil {
		t.Fatal(err)
	}
	if a.String() != b.String() {
		t.Fatal("StitchCluster is not deterministic")
	}
}

func TestWritePerfettoClusterFlows(t *testing.T) {
	coord := mkManifest(CoordTag,
		Span{ID: 1, Cat: "fleet", Name: "place", Task: NoTask, Begin: 10, End: 10},
	)
	n0 := mkManifest(NodeTag(0),
		Span{ID: 1, Cat: "admission", Name: "t", Task: 1, Begin: 12, End: 12,
			Link: 1, LinkNode: CoordTag},
	)
	n0.Tasks = []TaskInfo{{ID: 1, Name: "t"}}
	m, err := StitchCluster(coord, []*Manifest{n0})
	if err != nil {
		t.Fatal(err)
	}
	var buf strings.Builder
	if err := WritePerfetto(&buf, m); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	// Multi-track: one process per node plus the coordinator; the
	// resolved causal link draws as an s/f flow pair.
	for _, want := range []string{
		`"cluster coordinator"`, `"node 0"`, `"ph": "s"`, `"ph": "f"`, `"fleet-link"`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("cluster perfetto output missing %s", want)
		}
	}
	if err := ValidatePerfetto(strings.NewReader(out)); err != nil {
		t.Fatalf("cluster trace fails validation: %v", err)
	}
}

func TestStitchClusterDropsEvictedLinkTargets(t *testing.T) {
	// Node 0's ring starts at ID 10; the coordinator links to span 4,
	// which the ring evicted. The stitched link must drop to 0, not
	// dangle.
	coord := mkManifest(CoordTag,
		Span{ID: 1, Cat: "fleet", Name: "place", Task: NoTask, Begin: 1, End: 1,
			Link: 4, LinkNode: NodeTag(0)},
	)
	n0 := mkManifest(NodeTag(0),
		Span{ID: 10, Cat: "admission", Name: "t", Task: 1, Begin: 2, End: 2},
	)
	out, err := StitchCluster(coord, []*Manifest{n0})
	if err != nil {
		t.Fatal(err)
	}
	if out.Spans[0].Link != 0 {
		t.Fatalf("evicted link target must clear the link: %+v", out.Spans[0])
	}
	if err := ValidateManifest(out); err != nil {
		t.Fatal(err)
	}
}

func TestStitchClusterRejectsBadInputs(t *testing.T) {
	good := func() (*Manifest, []*Manifest) {
		return mkManifest(CoordTag), []*Manifest{mkManifest(NodeTag(0))}
	}

	if _, err := StitchCluster(nil, nil); err == nil {
		t.Error("nil coordinator must be rejected")
	}
	coord, nodes := good()
	coord.Node = NodeTag(3)
	if _, err := StitchCluster(coord, nodes); err == nil {
		t.Error("mistagged coordinator must be rejected")
	}
	coord, nodes = good()
	nodes[0].Node = NodeTag(5)
	if _, err := StitchCluster(coord, nodes); err == nil {
		t.Error("node manifest at the wrong position must be rejected")
	}
	coord, nodes = good()
	coord.Spans = []Span{{ID: 1, Cat: "fleet", Name: "x", Task: NoTask,
		Link: 1, LinkNode: NodeTag(9)}}
	if _, err := StitchCluster(coord, nodes); err == nil {
		t.Error("link to a tag outside the cluster must be rejected")
	}
}

func TestValidateManifestRejectsCorruptSpans(t *testing.T) {
	base := func() *Manifest {
		m := NewManifest(1)
		m.NodeCount = 1
		m.Spans = []Span{
			{ID: 1, Cat: "fleet", Name: "a", Task: NoTask, Node: CoordTag},
			{ID: 2, Cat: "admission", Name: "b", Task: 1, Node: NodeTag(0)},
		}
		return m
	}

	if err := ValidateManifest(base()); err != nil {
		t.Fatalf("baseline manifest invalid: %v", err)
	}
	m := base()
	m.Spans[1].ID = 1 // not strictly increasing
	if err := ValidateManifest(m); err == nil {
		t.Error("non-increasing span IDs must be rejected")
	}
	m = base()
	m.Spans[1].Parent = 5 // forward parent reference
	if err := ValidateManifest(m); err == nil {
		t.Error("parent outside [lo, id) must be rejected")
	}
	m = base()
	m.Spans[1].Link = 2 // self link
	if err := ValidateManifest(m); err == nil {
		t.Error("self link must be rejected")
	}
	m = base()
	m.Spans[1].Node = NodeTag(4) // beyond NodeCount
	if err := ValidateManifest(m); err == nil {
		t.Error("node tag outside the cluster must be rejected")
	}
}

// StitchLogs reads the span logs the parts were filled from and stitches
// what StitchCluster stitches from the parts; a wrapped ring needs no
// Export first. A log count that does not match the parts is refused.
func TestStitchLogsMatchesStitchCluster(t *testing.T) {
	coord, parts, logs := syntheticLogs(3000, 4)
	ring := NewSpansRing(100)
	for i := 0; i < 250; i++ {
		ring.Instant(ticksOf(i), "dispatch", "sp", 1, SpanID(max(i-3, 0)), "")
		ring.SetLink(SpanID(i+1), 0, SpanID(i-5))
	}
	parts[2].Spans, logs[3] = ring.Export(), ring
	want, err := StitchCluster(coord, parts)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range append([]*Manifest{coord}, parts...) {
		p.Spans = nil // StitchLogs does not read them
	}
	got, err := StitchLogs(coord, parts, logs)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatal("stitching the span logs differs from stitching the manifests")
	}
	if _, err := StitchLogs(coord, parts, logs[1:]); err == nil {
		t.Fatal("StitchLogs took 4 logs for 4 nodes and a coordinator")
	}
}
