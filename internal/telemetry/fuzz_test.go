package telemetry

import (
	"strings"
	"testing"
)

// FuzzReadManifest feeds arbitrary bytes through the manifest reader.
// Anything it accepts must validate, re-serialize, and read back to an
// equivalent document — the round-trip contract rdtrace stitch and the
// smoke gates depend on.
func FuzzReadManifest(f *testing.F) {
	var seed strings.Builder
	if err := sampleManifest().WriteJSON(&seed); err != nil {
		f.Fatal(err)
	}
	f.Add(seed.String())
	f.Add(`{"schema":"rdtel/v2","seed":1}`)
	f.Add(`{"schema":"rdtel/v1","seed":1}`) // the retired schema: rejected, not panicked on
	f.Add(`{"schema":"rdtel/v2","seed":1,"node_count":2,"spans":[` +
		`{"id":1,"cat":"fleet","name":"a","task":-1,"begin":1,"end":1,"node":-1},` +
		`{"id":2,"cat":"admission","name":"b","task":1,"begin":2,"end":2,"node":1,"link":1}]}`)
	f.Add(`{"schema":"rdtel/v999"}`)
	f.Add(`not json`)

	f.Fuzz(func(t *testing.T, doc string) {
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
