package telemetry

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"reflect"
	"strings"
	"testing"
	"unsafe"
)

// readManifestRef is ReadManifest as it was before the single-pass
// reader: encoding/json over the stream, then validation. It is the
// oracle for what is accepted, as what value, and with what error.
func readManifestRef(doc string) (*Manifest, error) {
	var m Manifest
	if err := json.NewDecoder(strings.NewReader(doc)).Decode(&m); err != nil {
		return nil, fmt.Errorf("telemetry: manifest: %v", err)
	}
	if err := ValidateManifest(&m); err != nil {
		return nil, err
	}
	return &m, nil
}

// checkReadersAgree holds the fast path to the reference on one
// document: whatever readCanonical accepts, encoding/json decodes to
// the same value (validation aside), and ReadManifest as a whole
// accepts, rejects and returns exactly what the reference does. It
// reports whether the fast path took the document.
func checkReadersAgree(t *testing.T, doc string) (fast bool) {
	t.Helper()
	got := new(Manifest)
	if _, fast = readCanonical([]byte(doc), got, 1, 0); fast {
		want := new(Manifest)
		if err := json.NewDecoder(strings.NewReader(doc)).Decode(want); err != nil {
			t.Fatalf("fast path accepted what encoding/json rejects (%v): %q", err, doc)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("fast path decoded\n %+v\nencoding/json decoded\n %+v\nfrom %q", got, want, doc)
		}
	}
	m, err := ReadManifest(strings.NewReader(doc))
	ref, refErr := readManifestRef(doc)
	if fmt.Sprint(err) != fmt.Sprint(refErr) {
		t.Fatalf("ReadManifest error %v, reference %v, on %q", err, refErr, doc)
	}
	if !reflect.DeepEqual(m, ref) {
		t.Fatalf("ReadManifest returned\n %+v\nreference\n %+v\nfrom %q", m, ref, doc)
	}
	checkSplitReaderAgrees(t, doc, got, fast)
	return fast
}

// checkSplitReaderAgrees holds the split reader to the one-part reader
// on one document, whose one-part result was one, ok: at 2, 3 and 4
// parts, with any list of two or more spans split, it must decode the
// same value, or refuse too. It returns the most parts a read split
// the span list into.
func checkSplitReaderAgrees(t *testing.T, doc string, one *Manifest, ok bool) (split int) {
	t.Helper()
	for parts := 2; parts <= 4; parts++ {
		m := new(Manifest)
		n, splitOK := readCanonical([]byte(doc), m, parts, 1)
		if splitOK != ok {
			t.Fatalf("read in %d parts (split %d), the fast path took it = %v; in one, %v: %q", parts, n, splitOK, ok, doc)
		}
		if ok && !reflect.DeepEqual(m, one) {
			t.Fatalf("read in %d parts (split %d):\n %+v\nin one:\n %+v\nfrom %q", parts, n, m, one, doc)
		}
		split = max(split, n)
	}
	return split
}

// TestSplitReaderTakesWriterOutput: the split reader really splits
// writer output — a stitched cluster, a list whose strings hold '{'
// and elemBoundary's bytes escaped, so its windows are compacted — and
// decodes what one pass does.
func TestSplitReaderTakesWriterOutput(t *testing.T) {
	braces := syntheticCluster(300, 2)
	for i := range braces.Spans {
		if i%7 == 0 {
			braces.Spans[i].Detail = "{\",\n    {" + braces.Spans[i].Detail
		}
	}
	for name, m := range map[string]*Manifest{"cluster": syntheticCluster(2000, 5), "braces": braces} {
		var doc bytes.Buffer
		if err := m.WriteJSON(&doc); err != nil {
			t.Fatal(err)
		}
		one := new(Manifest)
		if _, ok := readCanonical(doc.Bytes(), one, 1, 0); !ok {
			t.Fatalf("%s: the fast path deferred", name)
		}
		if split := checkSplitReaderAgrees(t, doc.String(), one, true); split != 4 {
			t.Errorf("%s: read in at most %d parts, want 4", name, split)
		}
	}
}

// TestReadCanonicalTakesWriterOutput pins that the fast path is the
// path: every indented document WriteJSON writes is decoded without
// falling back — the golden (whose Perfetto golden the decoded value
// still exports), a coordinator manifest, per-node manifests, a
// stitched cluster manifest, manifests with flight dumps, and the edge
// cases — and the same documents compacted are deferred, and agree.
func TestReadCanonicalTakesWriterOutput(t *testing.T) {
	coord, logs := syntheticLogs(2000, 5)
	manifests := map[string]*Manifest{
		"zero":        {},
		"sample":      sampleManifest(),
		"coordinator": coord,
		"cluster":     syntheticCluster(2000, 5),
	}
	for i, m := range logs {
		manifests[fmt.Sprintf("node%d", i)] = m
	}
	if len(logs[0].FlightDumps) == 0 || len(manifests["cluster"].FlightDumps) == 0 {
		t.Fatal("no manifest with flight dumps under test")
	}
	for i, s := range hostileStrings {
		manifests[fmt.Sprintf("edge%d", i)] = edgeManifest(s)
	}
	for name, m := range manifests {
		var indented bytes.Buffer
		if err := m.WriteJSON(&indented); err != nil {
			t.Fatal(err)
		}
		if !checkReadersAgree(t, indented.String()) {
			t.Errorf("%s: the fast path deferred to encoding/json on WriteJSON's own output", name)
		}
		compact, err := json.Marshal(m)
		if err != nil {
			t.Fatal(err)
		}
		if checkReadersAgree(t, string(compact)) {
			t.Errorf("%s: the fast path took the compacted document", name)
		}
	}

	golden, err := os.ReadFile("testdata/settop-smoke.manifest.golden")
	if err != nil {
		t.Fatal(err)
	}
	m := new(Manifest)
	if _, ok := readCanonical(golden, m, 1, 0); !ok || !checkReadersAgree(t, string(golden)) {
		t.Fatal("the fast path deferred on settop-smoke.manifest.golden")
	}
	want, err := os.ReadFile("testdata/settop-smoke.perfetto.golden")
	if err != nil {
		t.Fatal(err)
	}
	var export bytes.Buffer
	if err := WritePerfetto(&export, m); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(export.Bytes(), want) {
		t.Error("the fast path's decode of the manifest golden does not export settop-smoke.perfetto.golden")
	}
}

// writerLayout is m as WriteJSON writes it with each old → new
// replacement made: the writer's layout around what it would not write.
func writerLayout(m *Manifest, oldnew ...string) string {
	var b strings.Builder
	if err := m.WriteJSON(&b); err != nil {
		panic(err)
	}
	return strings.NewReplacer(oldnew...).Replace(b.String())
}

// nonCanonicalDocs are valid-or-not documents the fast path must hand
// to encoding/json rather than decide itself; FuzzReadManifest seeds
// from them too. wrap puts a span member list into a manifest; edit
// makes one change to a one-span manifest in the writer's layout.
var nonCanonicalDocs = func() map[string]string {
	wrap := func(span string) string {
		return `{"schema":"rdtel/v2","seed":1,"spans":[{` + span + `}]}`
	}
	one := &Manifest{Schema: SchemaVersion, Seed: 5, Spans: []Span{{ID: 7, Cat: "a", Name: "b", Task: 9, Begin: 11, End: 13}}}
	edit := func(old, new string) string { return writerLayout(one, old, new) }
	return map[string]string{
		"layoutNegativeZero":   edit(`"task": 9`, `"task": -0`),
		"layoutLeadingZero":    edit(`"begin": 11`, `"begin": 011`),
		"layoutInt32Overflow":  edit(`"id": 7`, `"id": 2147483648`),
		"layoutUint64Overflow": edit(`"seed": 5`, `"seed": 18446744073709551616`),
		"layoutTwentyOneDigit": edit(`"seed": 5`, `"seed": 100000000000000000000`),
		"layoutFraction":       edit(`"end": 13`, `"end": 13.0`),
		"layoutExponent":       edit(`"end": 13`, `"end": 1e3`),
		"layoutNull":           edit(`"cat": "a"`, `"cat": null`),
		"layoutDuplicateKey":   edit(`"id": 7,`, `"id": 7,`+"\n"+`      "id": 7,`),
		"layoutUnknownKey":     edit(`"end": 13`, `"end": 13,`+"\n"+`      "colour": "red"`),

		"unknownTopKey":     `{"schema":"rdtel/v2","seed":1,"extra":{"a":[1,2]}}`,
		"unknownSpanKey":    wrap(`"id":1,"cat":"a","name":"b","task":1,"begin":1,"end":1,"colour":"red"`),
		"upperCaseKey":      wrap(`"ID":1,"cat":"a","name":"b","task":1,"begin":1,"end":1`),
		"mixedCaseTopKey":   `{"Schema":"rdtel/v2","seed":1}`,
		"duplicateKey":      wrap(`"id":1,"id":2,"cat":"a","name":"b","task":1,"begin":1,"end":1`),
		"duplicateSpans":    `{"schema":"rdtel/v2","seed":1,"spans":[{"id":1,"detail":"x"}],"spans":[{"id":2}]}`,
		"duplicateSchema":   `{"schema":"rdtel/v1","schema":"rdtel/v2","seed":1}`,
		"nullSpans":         `{"schema":"rdtel/v2","seed":1,"spans":null}`,
		"nullSpan":          `{"schema":"rdtel/v2","seed":1,"spans":[null]}`,
		"nullString":        wrap(`"id":1,"cat":null,"name":"b","task":1,"begin":1,"end":1`),
		"nullNumber":        wrap(`"id":null,"cat":"a","name":"b","task":1,"begin":1,"end":1`),
		"nullMetrics":       `{"schema":"rdtel/v2","seed":1,"metrics":null}`,
		"nullTasks":         `{"schema":"rdtel/v2","seed":1,"tasks":null}`,
		"exponent":          wrap(`"id":1,"cat":"a","name":"b","task":1,"begin":1e3,"end":1000`),
		"fraction":          wrap(`"id":1.0,"cat":"a","name":"b","task":1,"begin":1,"end":1`),
		"realFraction":      wrap(`"id":1,"cat":"a","name":"b","task":1,"begin":1.5,"end":2`),
		"negativeZero":      wrap(`"id":1,"cat":"a","name":"b","task":-0,"begin":1,"end":1`),
		"negativeZeroSeed":  `{"schema":"rdtel/v2","seed":-0}`,
		"negativeSeed":      `{"schema":"rdtel/v2","seed":-1}`,
		"leadingZero":       wrap(`"id":01,"cat":"a","name":"b","task":1,"begin":1,"end":1`),
		"int32Overflow":     wrap(`"id":2147483648,"cat":"a","name":"b","task":1,"begin":1,"end":1`),
		"int32Underflow":    wrap(`"id":1,"cat":"a","name":"b","task":1,"begin":1,"end":1,"node":-2147483649`),
		"int64Overflow":     wrap(`"id":1,"cat":"a","name":"b","task":9223372036854775808,"begin":1,"end":1`),
		"uint64Overflow":    `{"schema":"rdtel/v2","seed":18446744073709551616}`,
		"hugeNumber":        `{"schema":"rdtel/v2","seed":1,"horizon_ticks":99999999999999999999999999}`,
		"numberAsString":    wrap(`"id":"1","cat":"a","name":"b","task":1,"begin":1,"end":1`),
		"stringAsNumber":    wrap(`"id":1,"cat":7,"name":"b","task":1,"begin":1,"end":1`),
		"trailingBytes":     `{"schema":"rdtel/v2","seed":1} trailing`,
		"secondDocument":    `{"schema":"rdtel/v2","seed":1}{"schema":"rdtel/v1"}`,
		"trailingComma":     `{"schema":"rdtel/v2","seed":1,}`,
		"trailingElemComma": `{"schema":"rdtel/v2","seed":1,"spans":[{"id":1},]}`,
		"missingComma":      `{"schema":"rdtel/v2" "seed":1}`,
		"truncated":         `{"schema":"rdtel/v2","seed":1,"spans":[{"id":1,"cat":"a`,
		"truncatedEscape":   `{"schema":"rdtel/v2","seed":1,"build":"a\`,
		"badEscape":         `{"schema":"rdtel/v2","seed":1,"build":"a\qb"}`,
		"shortHex":          `{"schema":"rdtel/v2","seed":1,"build":"a\u12"}`,
		"badHex":            `{"schema":"rdtel/v2","seed":1,"build":"a\u12g4"}`,
		"loneHighSurrogate": `{"schema":"rdtel/v2","seed":1,"build":"a\ud83d!"}`,
		"loneLowSurrogate":  `{"schema":"rdtel/v2","seed":1,"build":"a\ude00!"}`,
		"highThenNonLow":    `{"schema":"rdtel/v2","seed":1,"build":"\ud83dA"}`,
		"highThenHigh":      `{"schema":"rdtel/v2","seed":1,"build":"\ud83d\ud83d\ude00"}`,
		"invalidUTF8":       "{\"schema\":\"rdtel/v2\",\"seed\":1,\"build\":\"a\xffb\"}",
		"truncatedUTF8":     "{\"schema\":\"rdtel/v2\",\"seed\":1,\"build\":\"a\xe2\x80\"}",
		"encodedSurrogate":  "{\"schema\":\"rdtel/v2\",\"seed\":1,\"build\":\"a\xed\xa0\x80\"}",
		"controlInString":   "{\"schema\":\"rdtel/v2\",\"seed\":1,\"build\":\"a\nb\"}",
		"escapedKey":        `{"sch\u0065ma":"rdtel/v2","seed":1}`,
		"arrayDocument":     `[{"schema":"rdtel/v2","seed":1}]`,
		"nullDocument":      `null`,
		"emptyInput":        ``,
		"bom":               "\xef\xbb\xbf{\"schema\":\"rdtel/v2\",\"seed\":1}",
		"formFeedSpace":     "{\"schema\":\"rdtel/v2\",\f\"seed\":1}",
		"spansNotArray":     `{"schema":"rdtel/v2","seed":1,"spans":{"id":1}}`,
		"spanNotObject":     `{"schema":"rdtel/v2","seed":1,"spans":[1]}`,
		"tasksNotArray":     `{"schema":"rdtel/v2","seed":1,"tasks":{"id":1}}`,
		"taskTypeError":     `{"schema":"rdtel/v2","seed":1,"tasks":[{"id":"x","name":"n"}]}`,
		"metricsTruncated":  `{"schema":"rdtel/v2","seed":1,"metrics":{"counters":[{"name":"a","value":1}`,
		"metricsBadSyntax":  `{"schema":"rdtel/v2","seed":1,"metrics":{"counters":[}]}`,
		"deepUnknownMember": `{"schema":"rdtel/v2","seed":1,"metrics":{"x":` + strings.Repeat("[", 40) + strings.Repeat("]", 40) + `}}`,
		"surrogatePair":     `{"schema":"rdtel/v2","seed":1,"build":"\ud83d\ude00 \uD83D\uDE00","events":[{"at":1,"kind":"\ud83d\ude00"}]}`,
		"slashEscape":       writerLayout(&Manifest{Schema: SchemaVersion, Build: "BUILD"}, "BUILD", `a\/b`),
		"upperCaseHex":      writerLayout(&Manifest{Schema: "BUILD"}, "BUILD", `rdtel\u002Fv2`),
		// Canonical but for its span IDs: the fast path decodes it and
		// validation rejects it on either path.
		"invalidManifest": writerLayout(&Manifest{Schema: SchemaVersion, Seed: 1, Spans: []Span{
			{ID: 2, Cat: "a", Name: "b", Task: 1, Begin: 1, End: 1}, {ID: 1, Cat: "a", Name: "b", Task: 1, Begin: 1, End: 1}}}),
	}
}()

func TestReadCanonicalDefersWhatItDoesNotRecognise(t *testing.T) {
	for name, doc := range nonCanonicalDocs {
		fast := checkReadersAgree(t, doc)
		// invalidManifest is canonical JSON of an invalid manifest: the
		// fast path decodes it and validation rejects it on either path.
		if fast != (name == "invalidManifest") {
			t.Errorf("%s: fast path accepted = %v", name, fast)
		}
	}
}

// fastVariants are documents off WriteJSON's beaten path, laid
// out the writer's way, that the fast path still decodes itself: values
// spelled as the writer would not — other escapes, raw U+2028,
// zero-valued omitempty members — and unknown keys and free layout
// inside the members it hands to encoding/json.
var fastVariants = func() map[string]string {
	withDump := edgeManifest("x")
	withDump.FlightDumps[0].Spans[0].Cat = `"]`
	return map[string]string{
		"escapes":     writerLayout(&Manifest{Build: "BUILD"}, "BUILD", `q\"b\\s\b\f\n\r\t\u0041\u00e9 \ufffd \u2028\u0000`),
		"rawUnicode":  writerLayout(&Manifest{Build: "BUILD"}, "BUILD", "\u00e9 \u2603 \U0001F600 \ufffd \u2028"),
		"zeroMembers": writerLayout(sampleManifest(), `"test-build"`, `""`, `"horizon_ticks": 270000`, `"horizon_ticks": 0`, `"parent": 1`, `"parent": 0`),
		"smallMembersAnyLayout": writerLayout(sampleManifest(),
			`"counters": [`, `"x": [1, {"y": "}"}], "counters": [`,
			`"deadline_misses": 2`, `"Violations": 3, "z": "]",`+"\t"+`"deadline_misses": 2`,
			"[\n    {\n      \"id\": 1,\n      \"name\": \"worker\"\n    }\n  ]", `[{"id":1,"name":"worker"}]`),
		"bracketsInDumpStrings": writerLayout(withDump),
	}
}()

// deferredVariants are documents laid out another way — compact,
// reordered, re-spaced — which the fast path hands to encoding/json.
var deferredVariants = func() map[string]string {
	base := writerLayout(sampleManifest())
	return map[string]string{
		"compact":          strings.NewReplacer("\n", "", "  ", "", ": ", ":").Replace(base),
		"reorderedTop":     writerLayout(sampleManifest(), `"schema": "rdtel/v2",`+"\n"+`  "build": "test-build",`, `"build": "test-build",`+"\n"+`  "schema": "rdtel/v2",`),
		"reorderedSpan":    writerLayout(sampleManifest(), `"cat": "period",`+"\n"+`      "name": "worker",`, `"name": "worker",`+"\n"+`      "cat": "period",`),
		"reorderedCompact": `{"totals":{"deadline_misses":1},"spans":[{"end":9,"begin":1,"task":-1,"name":"n","cat":"c","id":3}],"seed":18446744073709551615,"schema":"rdtel/v2"}`,
		"crlf":             strings.ReplaceAll(base, "\n", "\r\n"),
		"tabs":             strings.ReplaceAll(base, "  ", "\t"),
		"spaceBeforeColon": strings.Replace(base, `"seed": `, `"seed" : `, 1),
		"trailingNewline":  base + "\n",
		"whitespace":       " \t\r\n{ \"schema\" :\t\"rdtel/v2\" ,\r\n\"seed\" : 1 , \"spans\" : [ { \"id\" : 1 } , { \"id\" : 2 } ] }\n\n",
		"emptyArrays":      `{"schema":"rdtel/v2","seed":0,"spans":[],"events":[],"tasks":[],"flight_dumps":[]}`,
		"emptyObject":      `{}`,
	}
}()

func TestReadCanonicalVariants(t *testing.T) {
	for _, set := range []struct {
		docs map[string]string
		fast bool
	}{{fastVariants, true}, {deferredVariants, false}} {
		for name, doc := range set.docs {
			if fast := checkReadersAgree(t, doc); fast != set.fast {
				t.Errorf("%s: the fast path took it = %v, want %v", name, fast, set.fast)
			}
		}
	}
}

// TestReadCanonicalEditsAgree edits a document in the writer's layout
// one byte at a time — deleting it, or putting in its place a byte that
// means something somewhere in the layout — and holds the fast path to
// encoding/json on every result: whatever it still takes, it decodes as
// encoding/json does.
func TestReadCanonicalEditsAgree(t *testing.T) {
	m := NewManifest(math.MaxUint64)
	m.Build, m.HorizonTicks, m.Node = "b\u2028<\x01", -5, 2
	m.Spans = []Span{
		{ID: 1, Cat: "c", Name: "é", Task: -1, Begin: 2, End: 3},
		{ID: 2, Parent: 1, Cat: "c", Name: "n", Task: 1, Begin: 3, End: 3, Detail: "d", Node: 1, Link: 1, LinkNode: 1},
	}
	m.Events = []LogEvent{{At: 1, Kind: "k", Detail: "d"}}
	doc := writerLayout(m)
	if !checkReadersAgree(t, doc) {
		t.Fatal("the fast path deferred on the unedited document")
	}
	for i := range len(doc) {
		checkReadersAgree(t, doc[:i]+doc[i+1:])
		for _, c := range []byte(" \t\n,:\"\\0-1eu{}[]\xff") {
			checkReadersAgree(t, doc[:i]+string(c)+doc[i+1:])
		}
	}
}

// TestReadManifestInternsRepeatedStrings: a category or name is one
// string however often it repeats — read in one pass, or split in three
// parts, which share their copies.
func TestReadManifestInternsRepeatedStrings(t *testing.T) {
	var doc bytes.Buffer
	if err := syntheticCluster(2000, 3).WriteJSON(&doc); err != nil {
		t.Fatal(err)
	}
	for _, parts := range []int{1, 3} {
		m := new(Manifest)
		if split, ok := readCanonical(doc.Bytes(), m, parts, 1); !ok || (parts > 1) != (split == parts) {
			t.Fatalf("%d parts: the fast path took it = %v, in %d parts", parts, ok, split)
		}
		first := map[string]*byte{}
		for i := range m.Spans {
			for _, s := range []string{m.Spans[i].Cat, m.Spans[i].Name} {
				p := unsafe.StringData(s)
				if q, ok := first[s]; ok && p != q {
					t.Fatalf("%d parts, span %d: %q is a second copy of an earlier string", parts, i, s)
				}
				first[s] = p
			}
		}
	}
}
