package trace

import (
	"bytes"
	"encoding/json"
	"reflect"
	"strings"
	"testing"

	"repro/internal/sched"
	"repro/internal/sim"
)

func TestExportRoundTrip(t *testing.T) {
	r := sampleRecorder()
	r.OnDeadlineMiss(2, 9*ms, ms)
	var buf bytes.Buffer
	if err := r.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var e Export
	if err := json.Unmarshal(buf.Bytes(), &e); err != nil {
		t.Fatalf("invalid JSON: %v", err)
	}
	if len(e.Tasks) != 2 || len(e.Slices) != 4 || len(e.Periods) != 1 {
		t.Errorf("counts: tasks=%d slices=%d periods=%d", len(e.Tasks), len(e.Slices), len(e.Periods))
	}
	if e.Summary.MissCount != 1 || e.Summary.VolSwitches != 1 || e.Summary.InvolSwitches != 1 {
		t.Errorf("summary = %+v", e.Summary)
	}
	if e.Summary.SwitchTicks != 300 {
		t.Errorf("switch ticks = %d, want 300", e.Summary.SwitchTicks)
	}
	// Kinds serialize as their names and come back typed.
	if !bytes.Contains(buf.Bytes(), []byte(`"kind": "granted"`)) {
		t.Errorf("kinds not written by name:\n%s", buf.Bytes())
	}
	if !reflect.DeepEqual(e.Slices[2], Slice{ID: 1, From: 5 * ms, To: 7 * ms, Kind: sched.DispatchOvertime}) {
		t.Errorf("slice = %+v", e.Slices[2])
	}
	if e.Switches[1].Kind != sim.Involuntary {
		t.Errorf("switch kind = %v", e.Switches[1].Kind)
	}
	// An unknown kind is an error that names it, not a dropped slice.
	for _, doc := range []string{`{"slices":[{"kind":"bogus"}]}`, `{"switches":[{"kind":"bogus"}]}`} {
		err := json.Unmarshal([]byte(doc), &Export{})
		if err == nil || !strings.Contains(err.Error(), `"bogus"`) {
			t.Errorf("%s: err = %v, want one naming \"bogus\"", doc, err)
		}
	}
}

func TestExportEmptyRecorder(t *testing.T) {
	r := New()
	var buf bytes.Buffer
	if err := r.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var e Export
	if err := json.Unmarshal(buf.Bytes(), &e); err != nil {
		t.Fatal(err)
	}
	if e.Summary.MissCount != 0 || len(e.Slices) != 0 {
		t.Error("empty recorder should export empty run")
	}
}
