package telemetry

import (
	"reflect"
	"testing"
)

func TestEventLogRecordMergeCount(t *testing.T) {
	var a, b EventLog
	a.Record(10, "fault.overrun", "task 3 ran 2x its grant")
	a.Record(20, "invariant.silent-miss", "task 3 period at 20")
	b.Record(15, "fault.storm", "burst of 50 interrupts")

	a.Merge(&b)
	if a.N() != 3 {
		t.Fatalf("N = %d, want 3", a.N())
	}
	// Merge appends; it does not re-sort (callers merge in fixed order).
	evs := a.Events()
	if evs[2].At != 15 || evs[2].Kind != "fault.storm" {
		t.Errorf("merge did not append in order: %+v", evs)
	}
	if got := a.CountKind("fault.overrun"); got != 1 {
		t.Errorf("CountKind(fault.overrun) = %d, want 1", got)
	}
	if got := a.KindPrefixCount("fault."); got != 2 {
		t.Errorf("KindPrefixCount(fault.) = %d, want 2", got)
	}
	// Events returns a copy: mutating it must not touch the log.
	evs[0].Kind = "mutated"
	if a.Events()[0].Kind != "fault.overrun" {
		t.Error("Events() exposed internal storage")
	}
	// Merging an empty or nil log is a no-op.
	before := a.Events()
	a.Merge(nil)
	a.Merge(&EventLog{})
	if !reflect.DeepEqual(before, a.Events()) {
		t.Error("merging empty logs changed the log")
	}
}
