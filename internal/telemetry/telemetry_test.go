package telemetry

import (
	"fmt"
	"math"
	"strings"
	"testing"
)

// --- instruments ---

func TestRegistryGetOrCreate(t *testing.T) {
	r := NewRegistry()
	c1 := r.Counter("a.b.c")
	c2 := r.Counter("a.b.c")
	if c1 != c2 {
		t.Error("same name must return the same Counter handle")
	}
	g1, g2 := r.Gauge("a.g"), r.Gauge("a.g")
	if g1 != g2 {
		t.Error("same name must return the same Gauge handle")
	}
	h1 := r.Histogram("a.h", 10, 4)
	h2 := r.Histogram("a.h", 10, 4)
	if h1 != h2 {
		t.Error("same name+geometry must return the same Histogram handle")
	}
	if c, ok := r.Lookup("a.b.c"); !ok || c != c1 {
		t.Error("Lookup must find the registered counter")
	}
	if _, ok := r.Lookup("missing"); ok {
		t.Error("Lookup must not invent counters")
	}
}

func TestHistogramGeometryPanics(t *testing.T) {
	r := NewRegistry()
	r.Histogram("h", 10, 4)
	mustPanic(t, "re-register different width", func() { r.Histogram("h", 20, 4) })
	mustPanic(t, "re-register different bins", func() { r.Histogram("h", 10, 8) })
	mustPanic(t, "zero width", func() { r.Histogram("h2", 0, 4) })
	mustPanic(t, "zero bins", func() { r.Histogram("h3", 10, 0) })
}

func mustPanic(t *testing.T, what string, f func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Errorf("%s: expected panic", what)
		}
	}()
	f()
}

func TestNilSafety(t *testing.T) {
	// Every handle method, every Registry method, every Spans method,
	// and the Set accessors must be no-ops (not crashes) on nil — this
	// is what makes disabled telemetry free for the instrumented code.
	var r *Registry
	c := r.Counter("x")
	c.Inc()
	c.Add(3)
	if c.Value() != 0 {
		t.Error("nil Counter must read zero")
	}
	g := r.Gauge("x")
	g.Set(7)
	if g.Value() != 0 || g.Max() != 0 {
		t.Error("nil Gauge must read zero")
	}
	h := r.Histogram("x", 10, 4)
	h.Observe(5)
	if h.Count() != 0 || h.Sum() != 0 {
		t.Error("nil Histogram must read zero")
	}
	if _, ok := r.Lookup("x"); ok {
		t.Error("nil Registry must not find counters")
	}
	if snap := r.Snapshot(); len(snap.Counters) != 0 {
		t.Error("nil Registry must snapshot empty")
	}

	var sp *Spans
	if id := sp.Complete(1, 2, "c", "n", NoTask, 0, ""); id != 0 {
		t.Error("nil Spans.Complete must return SpanID 0")
	}
	sp.Instant(1, "c", "n", NoTask, 0, "")
	sp.SetLink(1, CoordTag, 1)
	sp.Reserve(100)
	if sp.N() != 0 || sp.Export() != nil {
		t.Error("nil Spans must stay empty")
	}
	sp.All(func(Span) bool { t.Error("nil Spans must not yield"); return false })

	var set *Set
	if set.Reg() != nil || set.SpanLog() != nil {
		t.Error("nil Set accessors must return nil")
	}
}

func TestHistogramBuckets(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("h", 10, 3) // buckets [0,10) [10,20) [20,30) + overflow
	for _, v := range []int64{0, 9, 10, 25, 30, 1000, -5} {
		h.Observe(v)
	}
	snap := r.Snapshot().Histograms[0]
	want := []int64{3, 1, 1, 2} // {0,9,-5}, {10}, {25}, {30,1000}
	for i, c := range snap.Counts {
		if c != want[i] {
			t.Errorf("bucket %d = %d, want %d (counts %v)", i, c, want[i], snap.Counts)
		}
	}
	if snap.Count != 7 || snap.Sum != 0+9+10+25+30+1000-5 {
		t.Errorf("count=%d sum=%d", snap.Count, snap.Sum)
	}
}

// TestHistogramBucketIndex holds Observe's choice of bucket — a 32-bit
// divide when sample and width both fit, a 64-bit one otherwise — to
// the single expression it replaced, on either side of that boundary.
func TestHistogramBucketIndex(t *testing.T) {
	const two32 = int64(1) << 32
	widths := []int64{1, 7, 135, two32 - 1, two32, two32 + 1, math.MaxInt64}
	values := []int64{
		math.MinInt64, -two32, -1, 0, 1, 6, 7, 134, 135, 4 * 135, 5*135 - 1, 5 * 135,
		two32 - 2, two32 - 1, two32, two32 + 1, 5 * two32, 7*two32 - 1, 7 * two32, math.MaxInt64,
	}
	const bins = 5
	for _, w := range widths {
		for _, v := range values {
			want := int(v / w)
			if v < 0 {
				want = 0
			}
			if want > bins {
				want = bins // the overflow bucket
			}
			h := NewRegistry().Histogram("h", w, bins)
			h.Observe(v)
			for i, c := range h.counts {
				if (c != 0) != (i == want) {
					t.Errorf("width %d: sample %d counted in bucket %d, want %d (counts %v)", w, v, i, want, h.counts)
					break
				}
			}
			if h.Count() != 1 || h.Sum() != v {
				t.Errorf("width %d sample %d: count=%d sum=%d", w, v, h.Count(), h.Sum())
			}
		}
	}
}

// --- snapshots and merging ---

// registryFor builds a registry with a deterministic set of values
// scaled by k, standing in for "the telemetry of run k".
func registryFor(k int64) *Registry {
	r := NewRegistry()
	r.Counter("z.last").Add(k)
	r.Counter("a.first").Add(10 * k)
	r.Gauge("m.depth").Set(k)
	h := r.Histogram("m.lat", 5, 4)
	h.Observe(k)
	h.Observe(3 * k)
	return r
}

func TestSnapshotSorted(t *testing.T) {
	s := registryFor(1).Snapshot()
	if len(s.Counters) != 2 || s.Counters[0].Name != "a.first" || s.Counters[1].Name != "z.last" {
		t.Errorf("counters not name-sorted: %+v", s.Counters)
	}
}

// TestMergeIsChunkInvariant is the worker-count-invariance property the
// sweep engine relies on: folding run snapshots one-by-one in order
// must equal folding chunk subtotals (any chunking) in order.
func TestMergeIsChunkInvariant(t *testing.T) {
	runs := []int64{3, 1, 4, 1, 5, 9, 2, 6}

	var oneByOne Snapshot
	for _, k := range runs {
		oneByOne.Merge(registryFor(k).Snapshot())
	}

	for _, chunk := range []int{1, 2, 3, 8} {
		var chunked Snapshot
		for lo := 0; lo < len(runs); lo += chunk {
			hi := lo + chunk
			if hi > len(runs) {
				hi = len(runs)
			}
			var sub Snapshot
			for _, k := range runs[lo:hi] {
				sub.Merge(registryFor(k).Snapshot())
			}
			chunked.Merge(sub)
		}
		assertSnapshotsEqual(t, oneByOne, chunked, chunk)
	}

	// Spot-check the fold semantics themselves.
	if v := oneByOne.CounterValue("a.first"); v != 310 {
		t.Errorf("a.first = %d, want 310", v)
	}
	if g := oneByOne.Gauges[0]; g.Value != 6 || g.Max != 9 {
		t.Errorf("gauge = %+v, want last-wins value 6, max 9", g)
	}
	if h := oneByOne.Histograms[0]; h.Count != 16 {
		t.Errorf("histogram count = %d, want 16", h.Count)
	}
}

func assertSnapshotsEqual(t *testing.T, a, b Snapshot, chunk int) {
	t.Helper()
	if len(a.Counters) != len(b.Counters) || len(a.Gauges) != len(b.Gauges) || len(a.Histograms) != len(b.Histograms) {
		t.Fatalf("chunk=%d: shape differs", chunk)
	}
	for i := range a.Counters {
		if a.Counters[i] != b.Counters[i] {
			t.Errorf("chunk=%d: counter %d: %+v vs %+v", chunk, i, a.Counters[i], b.Counters[i])
		}
	}
	for i := range a.Gauges {
		if a.Gauges[i] != b.Gauges[i] {
			t.Errorf("chunk=%d: gauge %d: %+v vs %+v", chunk, i, a.Gauges[i], b.Gauges[i])
		}
	}
	for i := range a.Histograms {
		x, y := a.Histograms[i], b.Histograms[i]
		if x.Name != y.Name || x.Width != y.Width || x.Sum != y.Sum || x.Count != y.Count {
			t.Errorf("chunk=%d: histogram %d: %+v vs %+v", chunk, i, x, y)
		}
		for j := range x.Counts {
			if x.Counts[j] != y.Counts[j] {
				t.Errorf("chunk=%d: histogram %d bucket %d differs", chunk, i, j)
			}
		}
	}
}

func TestMergeUnionsDisjointNames(t *testing.T) {
	ra, rb := NewRegistry(), NewRegistry()
	ra.Counter("only.a").Inc()
	rb.Counter("only.b").Add(2)
	s := ra.Snapshot()
	s.Merge(rb.Snapshot())
	if s.CounterValue("only.a") != 1 || s.CounterValue("only.b") != 2 {
		t.Errorf("disjoint merge lost a counter: %+v", s.Counters)
	}
	if len(s.Counters) != 2 || s.Counters[0].Name != "only.a" {
		t.Errorf("merged counters not sorted: %+v", s.Counters)
	}
}

func TestMergeGeometryMismatchPanics(t *testing.T) {
	ra, rb := NewRegistry(), NewRegistry()
	ra.Histogram("h", 10, 4)
	rb.Histogram("h", 20, 4)
	s := ra.Snapshot()
	mustPanic(t, "merge mismatched histogram geometry", func() { s.Merge(rb.Snapshot()) })
}

// --- spans ---

func TestSpans(t *testing.T) {
	sp := NewSpans()
	period := sp.Complete(100, 200, "period", "worker", 1, 0, "")
	if period != 1 {
		t.Fatalf("first span ID = %d, want 1", period)
	}
	dispatch := sp.Complete(110, 150, "dispatch", "worker", 1, period, "granted")
	sp.Instant(120, "admission", "late", NoTask, 0, "rejected: cpu")

	if sp.N() != 3 {
		t.Fatalf("N = %d, want 3", sp.N())
	}
	out := sp.Export()
	if out[0].Begin != 100 || out[0].End != 200 {
		t.Errorf("period span lost its bounds: %+v", out[0])
	}
	if out[1].Parent != period || out[1].ID != dispatch {
		t.Errorf("dispatch parent link broken: %+v", out[1])
	}
	if out[2].Begin != out[2].End || out[2].Task != NoTask {
		t.Errorf("instant span malformed: %+v", out[2])
	}

	// Zero and never-assigned SetLink IDs are no-ops, not panics.
	sp.SetLink(0, CoordTag, 1)
	sp.SetLink(99, CoordTag, 1)
	for _, s := range sp.Export() {
		if s.Link != 0 {
			t.Errorf("SetLink on a zero or unassigned ID linked %+v", s)
		}
	}

	n := 0
	sp.All(func(Span) bool { n++; return n < 2 })
	if n != 2 {
		t.Errorf("All must stop when yield returns false; visited %d", n)
	}

	// Export copies: mutating the copy must not corrupt the log.
	out[0].Name = "mutated"
	if sp.Export()[0].Name != "worker" {
		t.Error("Export must return a copy")
	}
}

// --- manifest ---

func sampleManifest() *Manifest {
	set := NewSet()
	set.Registry.Counter("sched.deadline.misses").Add(2)
	set.Registry.Counter("invariant.violations").Add(1)
	set.Registry.Counter("rm.degrade.sheds").Add(3)
	set.Registry.Counter("fault.fired").Add(4)
	set.Registry.Gauge("sched.queue.time_remaining").Set(5)
	set.Registry.Histogram("sim.switch.cost", 5, 2).Observe(7)
	set.Spans.Complete(0, 270_000, "period", "worker", 1, 0, "")
	set.Spans.Complete(27, 54, "dispatch", "worker", 1, 1, "granted")
	set.Spans.Instant(100, "admission", "worker", NoTask, 0, "accepted")

	m := NewManifest(42)
	m.Build = "test-build"
	m.ConfigDigest = ConfigDigest(struct{ Name string }{"sample"})
	m.HorizonTicks = 270_000
	m.Tasks = []TaskInfo{{ID: 1, Name: "worker"}}
	m.Fill(set)
	m.DeriveTotals()
	return m
}

func TestManifestRoundTrip(t *testing.T) {
	m := sampleManifest()
	var buf strings.Builder
	if err := m.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := ReadManifest(strings.NewReader(buf.String()))
	if err != nil {
		t.Fatal(err)
	}
	if got.Seed != 42 || got.Build != "test-build" || got.HorizonTicks != 270_000 {
		t.Errorf("header fields lost: %+v", got)
	}
	if got.Totals != (Totals{DeadlineMisses: 2, Violations: 1, Degradations: 3, FaultsInjected: 4}) {
		t.Errorf("totals = %+v", got.Totals)
	}
	if len(got.Spans) != 3 || got.Spans[1].Parent != 1 {
		t.Errorf("spans lost in round trip: %+v", got.Spans)
	}
	if got.Metrics.CounterValue("fault.fired") != 4 {
		t.Error("metrics snapshot lost in round trip")
	}

	// Same manifest must serialize byte-identically.
	var again strings.Builder
	if err := m.WriteJSON(&again); err != nil {
		t.Fatal(err)
	}
	if buf.String() != again.String() {
		t.Error("WriteJSON is not deterministic")
	}
}

func TestReadManifestRejectsUnknownSchema(t *testing.T) {
	for _, schema := range []string{"rdtel/v999", "rdtel/v1"} { // v1: retired, no artifact of it is committed
		if _, err := ReadManifest(strings.NewReader(`{"schema":"` + schema + `"}`)); err == nil {
			t.Errorf("schema %s must be rejected", schema)
		}
	}
	if _, err := ReadManifest(strings.NewReader(`not json`)); err == nil {
		t.Error("invalid JSON must be rejected")
	}
}

func TestConfigDigestStable(t *testing.T) {
	type cfg struct {
		Scenario string
		Seed     uint64
	}
	a := ConfigDigest(cfg{"settop", 1})
	b := ConfigDigest(cfg{"settop", 1})
	c := ConfigDigest(cfg{"settop", 2})
	if a != b {
		t.Error("same config must digest identically")
	}
	if a == c {
		t.Error("different configs must digest differently")
	}
	if len(a) != 16 {
		t.Errorf("digest %q: want 16 hex chars (8 bytes)", a)
	}
}

// --- perfetto ---

func TestWritePerfettoDeterministicAndValid(t *testing.T) {
	m := sampleManifest()
	var one, two strings.Builder
	if err := WritePerfetto(&one, m); err != nil {
		t.Fatal(err)
	}
	if err := WritePerfetto(&two, m); err != nil {
		t.Fatal(err)
	}
	if one.String() != two.String() {
		t.Error("WritePerfetto is not deterministic")
	}
	if err := ValidatePerfetto(strings.NewReader(one.String())); err != nil {
		t.Errorf("exported trace fails validation: %v", err)
	}

	// Structural spot checks: the period span renders as a b/e async
	// pair, the dispatch as X, the admission as an instant, and the
	// task thread is named.
	out := one.String()
	for _, want := range []string{
		`"ph": "b"`, `"ph": "e"`, `"ph": "X"`, `"ph": "i"`, `"ph": "C"`,
		`"worker (task 1)"`, `"ph": "M"`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("perfetto output missing %s", want)
		}
	}
}

// TestValidatePerfettoRejectsMalformed pins each failure's message:
// pairings are named "cat/id", and of several left open the
// name-sorted first is the one reported.
func TestValidatePerfettoRejectsMalformed(t *testing.T) {
	ev := func(ph, cat string, id int) string {
		return fmt.Sprintf(`{"name":"x","cat":%q,"ph":%q,"ts":0,"pid":1,"tid":1,"id":%d}`, cat, ph, id)
	}
	doc := func(events ...string) string { return `{"traceEvents":[` + strings.Join(events, ",") + `]}` }
	cases := map[string]struct{ doc, want string }{
		"empty":        {doc(), "no traceEvents"},
		"noTraceKey":   {`{"displayTimeUnit":"ms"}`, "no traceEvents"},
		"notJSON":      {`]`, "invalid character ']' looking for beginning of value"},
		"unknownPhase": {doc(`{"name":"x","ph":"Z","ts":0,"pid":1,"tid":1}`), `event 0 has unknown phase "Z"`},
		"negativeTime": {doc(`{"name":"x","ph":"i","ts":-1,"pid":1,"tid":1}`), "event 0 has negative time"},
		"negativeDur":  {doc(ev("b", "period", 1), `{"name":"x","ph":"X","ts":0,"dur":-2,"pid":1,"tid":1}`), "event 1 has negative time"},
		"endNoBegin":   {doc(ev("e", "period", 1)), "event 0 ends async period/1 with no begin"},
		"endTwice":     {doc(ev("b", "period", 1), ev("e", "period", 1), ev("e", "period", 1)), "event 2 ends async period/1 with no begin"},
		"endOtherCat":  {doc(ev("b", "period", 1), ev("e", "grant", 1)), "event 1 ends async grant/1 with no begin"},
		"beginNoEnd":   {doc(ev("b", "period", 1)), "async period/1 left open"},
		"noCatKey":     {doc(ev("b", "", -5)), "async /-5 left open"},
		"firstOpenIsNameSorted": {doc(ev("b", "period", 9), ev("b", "period", 10), ev("b", "period", 2), ev("e", "period", 2), ev("b", "z", 1)),
			"async period/10 left open"},
		"asyncBeforeFlow": {doc(ev("s", "a", 1), ev("b", "z", 1)), "async z/1 left open"},
		"finishNoStart":   {doc(ev("f", "fleet-link", 9)), "event 0 finishes flow fleet-link/9 with no start"},
		"stepNoStart":     {doc(ev("t", "fleet-link", 9)), "event 0 steps flow fleet-link/9 with no start"},
		"stepAfterFinish": {doc(ev("s", "fleet-link", 9), ev("t", "fleet-link", 9), ev("f", "fleet-link", 9), ev("t", "fleet-link", 9)),
			"event 3 steps flow fleet-link/9 with no start"},
		"startNoFinish": {doc(ev("s", "fleet-link", 9)), "flow fleet-link/9 left open"},
		"firstOpenFlow": {doc(ev("s", "fleet-link", 9), ev("s", "causal", 30), ev("s", "causal", 4)), "flow causal/30 left open"},
	}
	for name, c := range cases {
		err := ValidatePerfetto(strings.NewReader(c.doc))
		if want := "telemetry: perfetto: " + c.want; err == nil || err.Error() != want {
			t.Errorf("%s: err = %v, want %s", name, err, want)
		}
	}
	ok := doc(ev("b", "period", 1), ev("s", "fleet-link", 1), ev("t", "fleet-link", 1), ev("e", "period", 1), ev("f", "fleet-link", 1))
	if err := ValidatePerfetto(strings.NewReader(ok)); err != nil {
		t.Errorf("well-paired document rejected: %v", err)
	}
}
