package telemetry

import (
	"bytes"
	"encoding/json"
	"fmt"
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
	if fast = readCanonical([]byte(doc), got); fast {
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
	return fast
}

// TestReadCanonicalTakesWriterOutput pins that the fast path is the
// path: everything WriteJSON writes (and the same documents compacted)
// is decoded without falling back.
func TestReadCanonicalTakesWriterOutput(t *testing.T) {
	manifests := map[string]*Manifest{
		"zero":    {},
		"sample":  sampleManifest(),
		"cluster": syntheticCluster(2000, 5),
	}
	for i, s := range hostileStrings {
		manifests[fmt.Sprintf("edge%d", i)] = edgeManifest(s)
	}
	for name, m := range manifests {
		var indented bytes.Buffer
		if err := m.WriteJSON(&indented); err != nil {
			t.Fatal(err)
		}
		compact, err := json.Marshal(m)
		if err != nil {
			t.Fatal(err)
		}
		for form, doc := range map[string]string{"indented": indented.String(), "compact": string(compact)} {
			if !checkReadersAgree(t, doc) {
				t.Errorf("%s (%s): the fast path deferred to encoding/json on WriteJSON's own output", name, form)
			}
		}
	}
	golden, err := os.ReadFile("testdata/settop-smoke.manifest.golden")
	if err != nil {
		t.Fatal(err)
	}
	if !checkReadersAgree(t, string(golden)) {
		t.Error("the fast path deferred on settop-smoke.manifest.golden")
	}
}

// nonCanonicalDocs are valid-or-not documents the fast path must hand
// to encoding/json rather than decide itself; FuzzReadManifest seeds
// from them too. wrap puts a span member list into a manifest.
var nonCanonicalDocs = func() map[string]string {
	wrap := func(span string) string {
		return `{"schema":"rdtel/v2","seed":1,"spans":[{` + span + `}]}`
	}
	return map[string]string{
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
		"invalidManifest":   `{"schema":"rdtel/v2","seed":1,"spans":[{"id":2,"cat":"a","name":"b","task":1,"begin":1,"end":1},{"id":1,"cat":"a","name":"b","task":1,"begin":1,"end":1}]}`,
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

// canonicalVariants are documents off WriteJSON's beaten path that the
// fast path still decodes itself.
var canonicalVariants = map[string]string{
	"reorderedKeys": `{"totals":{"deadline_misses":1,"violations":0,"degradations":0,"faults_injected":0},` +
		`"spans":[{"end":9,"begin":1,"task":-1,"name":"n","cat":"c","link_node":2,"link":4,"parent":0,"id":3}],` +
		`"seed":18446744073709551615,"node_count":0,"schema":"rdtel/v2"}`,
	"emptyArrays":   `{"schema":"rdtel/v2","seed":0,"spans":[],"events":[],"tasks":[],"flight_dumps":[]}`,
	"emptySpan":     `{"schema":"rdtel/v2","seed":0,"spans":[{}]}`,
	"emptyObject":   `{}`,
	"whitespace":    " \t\r\n{ \"schema\" :\t\"rdtel/v2\" ,\r\n\"seed\" : 1 , \"spans\" : [ { \"id\" : 1 } , { \"id\" : 2 } ] }\n\n",
	"escapes":       `{"schema":"rdtel/v2","seed":1,"build":"q\"b\\s\/\b\f\n\r\t\u0041\u00e9\u00E9 \ufffd \u2028\u0000"}`,
	"surrogatePair": `{"schema":"rdtel/v2","seed":1,"build":"\ud83d\ude00 \uD83D\uDE00","events":[{"at":1,"kind":"\ud83d\ude00"}]}`,
	"rawUnicode":    "{\"schema\":\"rdtel/v2\",\"seed\":1,\"build\":\"\u00e9 \u2603 \U0001F600 \ufffd \u2028\"}",
	"limits": `{"schema":"rdtel/v2","seed":1,"horizon_ticks":-9223372036854775808,"node":-2147483648,"spans":[` +
		`{"id":2147483647,"task":9223372036854775807,"begin":-9223372036854775808,"end":9223372036854775807}]}`,
	"unknownKeysInSmallMembers": `{"schema":"rdtel/v2","seed":1,"metrics":{"counters":null,"x":[1,{"y":"}"}]},"totals":{"Violations":3,"z":"]"}}`,
	"flightDumps": `{"schema":"rdtel/v2","seed":1,"flight_dumps":[{"reason":"r","at":1,"spans_total":1,"spans_dropped":0,` +
		`"events_total":0,"events_dropped":0,"spans":[{"id":1,"cat":"\"]","name":"n","task":1,"begin":1,"end":1}]}]}`,
}

func TestReadCanonicalVariants(t *testing.T) {
	for name, doc := range canonicalVariants {
		if !checkReadersAgree(t, doc) {
			t.Errorf("%s: the fast path deferred", name)
		}
	}
}

func TestReadManifestInternsRepeatedStrings(t *testing.T) {
	var doc bytes.Buffer
	if err := syntheticCluster(2000, 3).WriteJSON(&doc); err != nil {
		t.Fatal(err)
	}
	m, err := ReadManifest(&doc)
	if err != nil {
		t.Fatal(err)
	}
	first := map[string]*byte{}
	for i := range m.Spans {
		for _, s := range []string{m.Spans[i].Cat, m.Spans[i].Name} {
			p := unsafe.StringData(s)
			if q, ok := first[s]; ok && p != q {
				t.Fatalf("span %d: %q is a second copy of an earlier string", i, s)
			}
			first[s] = p
		}
	}
}
