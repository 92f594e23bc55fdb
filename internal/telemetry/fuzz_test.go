package telemetry

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"strings"
	"testing"

	"repro/internal/ticks"
)

// FuzzReadManifest feeds arbitrary bytes through the manifest reader.
// The single-pass fast path and the reference encoding/json decode must
// agree on every input — accept or reject, error text, and
// reflect.DeepEqual on the value — as must the split reader at 2–4
// parts and the one-part reader (checkReadersAgree holds both), and
// anything accepted must validate,
// re-serialize, and read back to an equivalent document: the round-trip
// contract rdtrace stitch and the smoke gates depend on.
func FuzzReadManifest(f *testing.F) {
	var seed strings.Builder
	if err := sampleManifest().WriteJSON(&seed); err != nil {
		f.Fatal(err)
	}
	f.Add(seed.String())
	var cluster strings.Builder
	if err := syntheticCluster(40, 2).WriteJSON(&cluster); err != nil {
		f.Fatal(err)
	}
	f.Add(cluster.String()) // enough spans to split in four
	f.Add(`{"schema":"rdtel/v2","seed":1}`)
	f.Add(`{"schema":"rdtel/v1","seed":1}`) // the retired schema: rejected, not panicked on
	f.Add(`{"schema":"rdtel/v2","seed":1,"node_count":2,"spans":[` +
		`{"id":1,"cat":"fleet","name":"a","task":-1,"begin":1,"end":1,"node":-1},` +
		`{"id":2,"cat":"admission","name":"b","task":1,"begin":2,"end":2,"node":1,"link":1}]}`)
	f.Add(`{"schema":"rdtel/v999"}`)
	f.Add(`not json`)
	// What the fast path must defer on — unknown, re-cased and
	// duplicate keys, nulls, 1e3 / 1.0 / -0, trailing bytes, surrogates,
	// any other layout — and what off the writer's path it still takes.
	for _, docs := range []map[string]string{nonCanonicalDocs, fastVariants, deferredVariants} {
		for _, doc := range docs {
			f.Add(doc)
		}
	}

	f.Fuzz(func(t *testing.T, doc string) {
		checkReadersAgree(t, doc)
		m, err := ReadManifest(strings.NewReader(doc))
		if err != nil {
			return // rejected input is fine; not crashing is the point
		}
		// Accepted implies valid: ReadManifest runs ValidateManifest.
		if err := ValidateManifest(m); err != nil {
			t.Fatalf("ReadManifest accepted an invalid manifest: %v", err)
		}
		var once strings.Builder
		if err := m.WriteJSON(&once); err != nil {
			t.Fatalf("accepted manifest does not re-serialize: %v", err)
		}
		if !checkReadersAgree(t, once.String()) {
			t.Fatal("the fast path deferred on WriteJSON's output")
		}
		back, err := ReadManifest(strings.NewReader(once.String()))
		if err != nil {
			t.Fatalf("re-serialized manifest does not read back: %v", err)
		}
		var twice strings.Builder
		if err := back.WriteJSON(&twice); err != nil {
			t.Fatal(err)
		}
		if once.String() != twice.String() {
			t.Fatal("manifest round trip is not a fixed point")
		}
	})
}

// fuzzedManifest spreads one set of fuzzed strings and integers over
// every string and integer position of a manifest, in spans that take
// each Perfetto shape (instant, async period pair, complete slice,
// resolved and dangling flow).
func fuzzedManifest(cat, name, detail, task string, id, parent, node, link int32, taskID, begin, end int64, seed uint64) *Manifest {
	fuzzed := Span{
		ID: SpanID(id), Parent: SpanID(parent), Cat: cat, Name: name, Task: taskID,
		Begin: ticks.Ticks(begin), End: ticks.Ticks(end), Detail: detail,
		Node: node, Link: SpanID(link), LinkNode: parent % 2,
	}
	period, instant, target := fuzzed, fuzzed, fuzzed
	period.Cat, period.LinkNode = "period", 0
	instant.End = instant.Begin
	target.ID, target.Link, target.Begin = SpanID(link), SpanID(id), ticks.Ticks(end)
	spans := []Span{fuzzed, period, instant, target}

	m := NewManifest(seed)
	m.Build, m.ConfigDigest = detail, name
	m.HorizonTicks = ticks.Ticks(end)
	m.Node = node
	m.NodeCount = int(uint32(node) % 4)
	m.Tasks = []TaskInfo{{ID: taskID, Name: task, Node: node}, {ID: begin, Name: name}}
	m.Metrics.Counters = []CounterSnap{{Name: name, Value: begin}}
	if id%2 == 0 {
		m.Metrics.Gauges = []GaugeSnap{{Name: task, Value: end, Max: taskID}}
		m.Metrics.Histograms = []HistSnap{{Name: cat, Width: begin, Counts: []int64{end, taskID}, Sum: begin, Count: end}}
	}
	m.Spans = spans
	m.Events = []LogEvent{{At: ticks.Ticks(begin), Kind: cat, Detail: detail}}
	m.FlightDumps = []FlightDump{{
		Node: node, Reason: name, At: ticks.Ticks(end), SpansTotal: taskID, SpansDropped: begin,
		EventsTotal: end, EventsDropped: int64(id), Spans: spans[:2], Events: m.Events,
	}}
	m.Totals = Totals{DeadlineMisses: begin, Violations: end, Degradations: taskID, FaultsInjected: int64(id), FlightDumps: int64(link)}
	return m
}

// addWriterSeeds seeds a writer fuzz target with the escaping cases
// (HTML characters, quotes and backslashes, control bytes, U+2028/2029,
// invalid UTF-8) and the integer cases (int32/int64 limits, tick values
// whose microsecond quotient needs all 17 significant digits).
func addWriterSeeds(f *testing.F) {
	for i, s := range hostileStrings {
		next := hostileStrings[(i+1)%len(hostileStrings)]
		f.Add(s, next, s+next, next+s, int32(i), int32(-i), int32(i%3), int32(i+1), int64(i), int64(i*27), int64(i*54+1), uint64(i))
	}
	f.Add("period", "worker", "granted", "decode", int32(math.MaxInt32), int32(math.MinInt32), int32(math.MinInt32), int32(math.MaxInt32),
		int64(math.MaxInt64), int64(math.MinInt64), int64(math.MaxInt64), uint64(math.MaxUint64))
	f.Add("fleet", "place", "", "", int32(1), int32(0), int32(-1), int32(2),
		int64(-1), int64(9007199254740993), int64(123456789012345678), uint64(0))
	f.Add("dispatch", "x", "y", "z", int32(7), int32(3), int32(2), int32(7),
		int64(0), int64(1), int64(2), uint64(1))
}

// FuzzWriteJSONMatchesRef: the streaming emitter writes the bytes
// encoding/json writes, whatever the strings and integers — in one
// pass, and through the chunk runner with its four spans repeated six
// times, in chunks of 1–3 spans on 2–4 workers.
func FuzzWriteJSONMatchesRef(f *testing.F) {
	addWriterSeeds(f)
	f.Fuzz(func(t *testing.T, cat, name, detail, task string, id, parent, node, link int32, taskID, begin, end int64, seed uint64) {
		m := fuzzedManifest(cat, name, detail, task, id, parent, node, link, taskID, begin, end, seed)
		checkWriteJSONMatchesRef(t, m)
		checkChunkedWriteJSONMatchesRef(t, repeatSpans(m, 6))
	})
}

// FuzzWritePerfettoMatchesRef is the same for the Perfetto export.
func FuzzWritePerfettoMatchesRef(f *testing.F) {
	addWriterSeeds(f)
	f.Fuzz(func(t *testing.T, cat, name, detail, task string, id, parent, node, link int32, taskID, begin, end int64, seed uint64) {
		m := fuzzedManifest(cat, name, detail, task, id, parent, node, link, taskID, begin, end, seed)
		checkWritePerfettoMatchesRef(t, m)
		checkChunkedWritePerfettoMatchesRef(t, repeatSpans(m, 6))
	})
}

// FuzzValidatePerfettoMatchesRef: ValidatePerfetto returns what the
// encoding/json validator returns on every input, error text and all,
// and its fast path accepts nothing that validator rejects. Seeds: the
// settop golden, a small stitched cluster export (s/f flows, "bp": "e",
// args.link and args.parent), and every malformed document both as
// written and re-indented into the writer's layout, where the fast path
// reads it to the end and must refuse it on its phases and pairings.
func FuzzValidatePerfettoMatchesRef(f *testing.F) {
	golden, err := os.ReadFile("testdata/settop-smoke.perfetto.golden")
	if err != nil {
		f.Fatal(err)
	}
	f.Add(string(golden))
	var cluster strings.Builder
	if err := WritePerfetto(&cluster, syntheticCluster(60, 2)); err != nil {
		f.Fatal(err)
	}
	f.Add(cluster.String())
	for _, c := range malformedPerfetto {
		f.Add(c.doc)
		f.Add(perfettoLayout(c.doc))
	}
	ev := perfettoEv
	if ok := perfettoDoc(ev("b", "period", 1), ev("s", "fleet-link", 1), ev("t", "fleet-link", 1), ev("e", "period", 1), ev("f", "fleet-link", 1)); !perfettoCanonical([]byte(perfettoLayout(ok))) {
		f.Fatal("perfettoLayout does not lay a well-paired document out as the fast path takes it")
	}

	f.Fuzz(func(t *testing.T, doc string) {
		want := validatePerfettoJSON(strings.NewReader(doc))
		if perfettoCanonical([]byte(doc)) && want != nil {
			t.Fatalf("fast path accepted a document the reference rejects: %v", want)
		}
		if got := ValidatePerfetto(strings.NewReader(doc)); fmt.Sprint(got) != fmt.Sprint(want) {
			t.Fatalf("ValidatePerfetto = %v, reference = %v", got, want)
		}
	})
}

// perfettoLayout re-indents a compact trace-event document the way
// WritePerfetto lays one out, adding the displayTimeUnit member it
// always writes; a document that is not an object is returned as is.
func perfettoLayout(doc string) string {
	var out bytes.Buffer
	if !strings.HasSuffix(doc, "]}") || json.Indent(&out, []byte(strings.TrimSuffix(doc, "}")+`,"displayTimeUnit":"ms"}`), "", perfettoUnit) != nil {
		return doc
	}
	return out.String() + "\n"
}
