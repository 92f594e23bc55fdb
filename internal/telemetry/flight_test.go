package telemetry

import (
	"fmt"
	"reflect"
	"testing"

	"repro/internal/ticks"
)

// --- ring span log ---

func TestSpansRingEvictsOldest(t *testing.T) {
	s := NewSpansRing(4)
	for i := 0; i < 10; i++ {
		s.Instant(ticksOf(i), "cat", "sp", NoTask, 0, "")
	}
	if s.Total() != 10 {
		t.Fatalf("Total = %d, want 10", s.Total())
	}
	if s.N() != 4 {
		t.Fatalf("N = %d, want ring capacity 4", s.N())
	}
	out := s.Export()
	// Residents are the newest four, IDs contiguous and ascending.
	want := SpanID(7)
	for _, sp := range out {
		if sp.ID != want {
			t.Fatalf("resident IDs = %v, want 7..10 ascending", ids(out))
		}
		want++
	}
}

// The ring places a span by a wrapping head index, and finds it again
// by (ID-1) mod capacity: three times round a five-slot ring the two
// must agree after every record, for slot, FindLast and the flight
// dump — the ring's own and that of a Flight fronting an unbounded log
// fed the same records.
func TestSpansRingWrapMatchesModuloPlacement(t *testing.T) {
	const ringCap = 5
	cats := []string{"period", "dispatch", "admission"}
	own := NewFlight(ringCap, 1)
	ring := own.Ring()
	log, fronting := NewSpans(), NewFlight(ringCap, 1)
	fronting.Front(log)
	for i := 0; i < 3*ringCap+2; i++ {
		cat := cats[i*i%len(cats)]
		id := ring.Instant(ticksOf(i), cat, "sp", int64(i), 0, "")
		if got := log.Instant(ticksOf(i), cat, "sp", int64(i), 0, ""); got != id {
			t.Fatalf("record %d: ring handed out ID %d, log %d", i, id, got)
		}
		lastOf := map[string]SpanID{}
		for k := SpanID(1); k <= id; k++ {
			sp := ring.slot(k)
			if int(id-k) >= ringCap {
				if sp != nil {
					t.Fatalf("after %d: evicted ID %d still resolves to %+v", id, k, *sp)
				}
				continue
			}
			at := &ring.blocks[0][(int(k)-1)%ringCap]
			if sp != at || sp.ID != k || sp.Task != int64(k-1) {
				t.Fatalf("after %d: slot(%d) = %+v, want the span at index %d: %+v", id, k, sp, (int(k)-1)%ringCap, *at)
			}
			lastOf[sp.Cat] = k
		}
		for _, c := range cats {
			if got := ring.FindLast(c); got != lastOf[c] {
				t.Fatalf("after %d: FindLast(%q) = %d, want %d", id, c, got, lastOf[c])
			}
		}
		lo := max(1, int(id)-ringCap+1)
		for r, f := range []*Flight{own, fronting} {
			name := []string{"own ring", "fronted log"}[r]
			dump := f.Dump(NodeTag(0), "test", ticksOf(i))
			if len(dump.Spans) != int(id)-lo+1 || dump.SpansDropped != int64(lo-1) {
				t.Fatalf("%s after %d: dump holds %v (dropped %d), want IDs %d..%d", name, id, ids(dump.Spans), dump.SpansDropped, lo, id)
			}
			for k, sp := range dump.Spans {
				if sp.ID != SpanID(lo+k) || sp.Task != int64(lo+k-1) {
					t.Fatalf("%s after %d: dump[%d] = %+v, want ID %d", name, id, k, sp, lo+k)
				}
			}
		}
	}
}

func TestSpansRingGenerationCheck(t *testing.T) {
	s := NewSpansRing(2)
	old := s.Instant(1, "cat", "old", NoTask, 0, "")
	s.Instant(2, "cat", "b", NoTask, 0, "")
	s.Instant(3, "cat", "c", NoTask, 0, "") // evicts `old`

	// SetLink and SetDetail on the evicted ID must be inert: the slot
	// now holds a different span and may not be corrupted. So must
	// SetDetail on the zero ID and on one not yet assigned.
	s.SetLink(old, CoordTag, 2)
	s.SetDetail(old, "stale")
	s.SetDetail(0, "zero")
	s.SetDetail(4, "future")
	for _, sp := range s.Export() {
		if sp.ID == old {
			t.Fatal("evicted span still resident")
		}
		if sp.Link != 0 || sp.Detail != "" {
			t.Fatalf("operation on evicted ID mutated successor: %+v", sp)
		}
	}

	// A resident ID still works through the same slot arithmetic.
	live := s.Complete(4, 50, "cat", "live", NoTask, 0, "")
	s.SetLink(live, CoordTag, 2)
	s.SetDetail(live, "late")
	out := s.Export()
	if got := out[len(out)-1]; got.ID != live || got.End != 50 || got.Link != 2 || got.LinkNode != CoordTag || got.Detail != "late" {
		t.Fatalf("resident SetLink or SetDetail lost: %+v", got)
	}
}

func TestSpansRingExportClearsDanglingRefs(t *testing.T) {
	s := NewSpansRing(2)
	parent := s.Instant(1, "cat", "parent", NoTask, 0, "")
	s.Instant(2, "cat", "x", NoTask, 0, "")
	child := s.Instant(3, "cat", "child", NoTask, parent, "") // parent evicted here
	s.SetLink(child, 0, parent)                               // same-log link to an evicted span: dropped at SetLink or Export
	out := s.Export()
	for _, sp := range out {
		if sp.Parent != 0 && (sp.Parent < out[0].ID) {
			t.Fatalf("exported span points at evicted parent: %+v", sp)
		}
		if sp.Link != 0 && sp.LinkNode == 0 && sp.Link < out[0].ID {
			t.Fatalf("exported span points at evicted link target: %+v", sp)
		}
	}
}

func TestFindLast(t *testing.T) {
	s := NewSpans()
	s.Instant(1, "admission", "a", NoTask, 0, "")
	want := s.Instant(2, "admission", "b", NoTask, 0, "")
	s.Instant(3, "other", "c", NoTask, 0, "")
	if got := s.FindLast("admission"); got != want {
		t.Fatalf("FindLast = %d, want %d", got, want)
	}
	if got := s.FindLast("missing"); got != 0 {
		t.Fatalf("FindLast(missing) = %d, want 0", got)
	}
}

// --- flight recorder ---

// A Flight that owns its ring and one that fronts an unbounded log
// dump the same bytes when fed the same records: SetLink reaches
// resident spans on both and is inert (ring) or below the dumped
// window (log) on evicted ones, and a Parent or same-log Link that
// points below the window is cleared either way.
func TestFlightFrontedLogDumpsLikeOwnRing(t *testing.T) {
	own, fronting := NewFlight(4, 4), NewFlight(4, 4)
	log := NewSpans()
	fronting.Front(log)
	same := func(step string) {
		t.Helper()
		a, b := own.Dump(NodeTag(2), "test", 100), fronting.Dump(NodeTag(2), "test", 100)
		if !reflect.DeepEqual(a, b) {
			t.Fatalf("%s: dumps differ\n own ring:    %+v\n fronted log: %+v", step, a, b)
		}
	}
	same("empty")
	for i := 0; i < 11; i++ {
		// IDs are sequential from 1 on both sides, so 1..i name the
		// spans before this one: some resident, some long evicted.
		parent := SpanID(i * 7 % (i + 1))
		for _, s := range []*Spans{own.Ring(), log} {
			id := s.Complete(ticksOf(i), ticksOf(50+i), "cat", "sp", int64(i), parent, "")
			s.SetLink(id, 0, SpanID(i/3+1))                       // same-log link, below the window as i grows
			s.SetLink(SpanID(i*5%(i+1)+1), CoordTag, SpanID(i+1)) // cross-log link, on IDs resident and long evicted
		}
		same(fmt.Sprintf("after record %d", i+1))
	}
	d := fronting.Dump(NodeTag(2), "test", 100)
	if log.N() != 11 || d.SpansTotal != 11 || d.SpansDropped != 7 || len(d.Spans) != 4 {
		t.Fatalf("accounting: log N=%d, dump total=%d dropped=%d len=%d", log.N(), d.SpansTotal, d.SpansDropped, len(d.Spans))
	}
	for _, sp := range d.Spans {
		if (sp.Parent != 0 && sp.Parent < d.Spans[0].ID) || (sp.Link != 0 && sp.LinkNode == 0 && sp.Link < d.Spans[0].ID) {
			t.Fatalf("dumped span points below the window: %+v", sp)
		}
	}
	// The unbounded log itself keeps what the dump dropped, and the
	// recorder in front of it holds no ring of its own.
	if sp := log.slot(1); sp == nil || sp.End != ticksOf(50) || sp.Link == 0 {
		t.Fatalf("span 1 of the full log lost its End or its link: %+v", sp)
	}
	if fronting.ring != nil {
		t.Fatal("a recorder that only fronts a log allocated a span ring")
	}
	// Reset lets go of the log: a reused recorder owns its ring again.
	own.Reset()
	fronting.Reset()
	same("after Reset")
	own.Ring().Instant(1, "cat", "sp", NoTask, 0, "")
	fronting.Ring().Instant(1, "cat", "sp", NoTask, 0, "")
	same("after Reset and one record")
}

func TestFlightDumpStampsNodeAndOrdersEvents(t *testing.T) {
	f := NewFlight(4, 3)
	r := f.Ring()
	r.Instant(1, "cat", "sp", NoTask, 0, "")
	for i := 0; i < 5; i++ { // wraps the 3-slot event ring
		f.Event(ticksOf(10+i), "kind", "detail")
	}
	d := f.Dump(NodeTag(2), "test", 99)
	if d.Node != NodeTag(2) || d.Reason != "test" || d.At != 99 {
		t.Fatalf("dump header: %+v", d)
	}
	for _, sp := range d.Spans {
		if sp.Node != NodeTag(2) {
			t.Fatalf("dump span not node-stamped: %+v", sp)
		}
	}
	if d.EventsTotal != 5 || d.EventsDropped != 2 || len(d.Events) != 3 {
		t.Fatalf("event accounting: total=%d dropped=%d len=%d", d.EventsTotal, d.EventsDropped, len(d.Events))
	}
	for i := 1; i < len(d.Events); i++ {
		if d.Events[i].At < d.Events[i-1].At {
			t.Fatalf("dump events out of order: %+v", d.Events)
		}
	}

	// Dumping never clears: a second dump sees the same state.
	again := f.Dump(NodeTag(2), "test", 99)
	if len(again.Spans) != len(d.Spans) || len(again.Events) != len(d.Events) {
		t.Fatal("Dump must not drain the recorder")
	}
}

func TestFlightDumpValidatesInManifest(t *testing.T) {
	f := NewFlight(4, 4)
	r := f.Ring()
	for i := 0; i < 6; i++ {
		r.Instant(ticksOf(i), "cat", "sp", NoTask, 0, "")
	}
	f.Event(50, "kind", "detail")
	m := NewManifest(1)
	m.NodeCount = 2
	m.FlightDumps = []FlightDump{f.Dump(NodeTag(1), "node-crash", 60)}
	m.DeriveTotals()
	if m.Totals.FlightDumps != 1 {
		t.Fatalf("Totals.FlightDumps = %d, want 1", m.Totals.FlightDumps)
	}
	if err := ValidateManifest(m); err != nil {
		t.Fatalf("valid dump rejected: %v", err)
	}

	// Corrupt the drop accounting and the validator must notice.
	m.FlightDumps[0].SpansDropped++
	if err := ValidateManifest(m); err == nil {
		t.Fatal("unbalanced dump accounting must be rejected")
	}
}

func ticksOf(i int) ticks.Ticks { return ticks.Ticks(i + 1) }

func ids(spans []Span) []SpanID {
	out := make([]SpanID, len(spans))
	for i, sp := range spans {
		out[i] = sp.ID
	}
	return out
}

// TestFlightResetForgetsPreviousRun: a reset recorder is a new one as
// far as anything observable goes — zero totals, every ID the previous
// run handed out inert, the second run's dump equal to a fresh
// recorder's — and it records into the storage it already has.
func TestFlightResetForgetsPreviousRun(t *testing.T) {
	record := func(f *Flight, n int) {
		for i := 0; i < n; i++ {
			f.Ring().Complete(ticksOf(i), ticksOf(i)+5, "admission", "sp", int64(i), 0, "")
			f.Event(ticksOf(i), "kind", "detail")
		}
	}
	f := NewFlight(4, 3)
	record(f, 7) // both rings wrapped: head and the event cursor are mid-ring
	stale := SpanID(f.Ring().Total())
	f.Reset()

	f.Ring().SetLink(stale, CoordTag, 1)
	if got := f.Ring().FindLast("admission"); got != 0 {
		t.Fatalf("FindLast after Reset = %d, want 0", got)
	}
	d := f.Dump(NodeTag(0), "test", 1)
	if d.SpansTotal != 0 || d.SpansDropped != 0 || d.EventsTotal != 0 || d.EventsDropped != 0 ||
		len(d.Spans) != 0 || len(d.Events) != 0 {
		t.Fatalf("dump right after Reset is not empty: %+v", d)
	}

	fresh := NewFlight(4, 3)
	record(f, 6)
	record(fresh, 6)
	if got, want := f.Dump(NodeTag(0), "test", 9), fresh.Dump(NodeTag(0), "test", 9); !reflect.DeepEqual(got, want) {
		t.Fatalf("second run's dump differs from a fresh recorder's:\n got: %+v\nwant: %+v", got, want)
	}

	f.Reset()
	if allocs := testing.AllocsPerRun(1, func() { record(f, 6) }); allocs != 0 {
		t.Fatalf("recording after Reset allocates %.0f times, want 0", allocs)
	}
}

// An unbounded log stores its spans in blocks of spanBlock. Recorded
// across the first two block boundaries, with links set on the spans
// either side of each, every reader returns what a plain slice of the
// same records holds; and an ID handed out before a Reset stays inert
// until the refill reaches it.
func TestSpanLogBlocksMatchSlice(t *testing.T) {
	cats := []string{"period", "dispatch", "admission"}
	s := NewSpans()
	var ref []Span
	for i := 0; i < 2*spanBlock+3; i++ {
		cat := cats[i*i%len(cats)]
		id := s.Complete(ticksOf(i), ticksOf(i+1), cat, "sp", int64(i), SpanID(i/2), "")
		ref = append(ref, Span{ID: id, Parent: SpanID(i / 2), Cat: cat, Name: "sp", Task: int64(i), Begin: ticksOf(i), End: ticksOf(i + 1)})
		if id != SpanID(i+1) {
			t.Fatalf("record %d: ID %d", i, id)
		}
		if k := id % spanBlock; id > 1 && (k <= 1 || k == spanBlock-1) { // 255–257, 511–513
			s.SetLink(id, NodeTag(1), id-1)
			ref[id-1].Link, ref[id-1].LinkNode = id-1, NodeTag(1)
		}
	}
	for i := range ref {
		if sp := s.slot(ref[i].ID); sp == nil || *sp != ref[i] {
			t.Fatalf("slot(%d) = %+v, want %+v", ref[i].ID, sp, ref[i])
		}
	}
	for _, c := range cats {
		want := SpanID(0)
		for i := range ref {
			if ref[i].Cat == c {
				want = ref[i].ID
			}
		}
		if got := s.FindLast(c); got != want {
			t.Fatalf("FindLast(%q) = %d, want %d", c, got, want)
		}
	}
	var all []Span
	s.All(func(sp Span) bool { all = append(all, sp); return true })
	if !reflect.DeepEqual(all, ref) || !reflect.DeepEqual(s.Export(), ref) || s.N() != len(ref) {
		t.Fatalf("All or Export differ from the records (N = %d)", s.N())
	}

	stale := SpanID(spanBlock + 1)
	s.Reset()
	s.SetLink(stale, CoordTag, 1)
	if s.slot(stale) != nil || s.FindLast("period") != 0 || s.Export() != nil {
		t.Fatal("an ID from before Reset resolves")
	}
	for i := 0; i < spanBlock+1; i++ {
		s.Instant(ticksOf(i), "fresh", "sp", NoTask, 0, "")
	}
	if sp := s.slot(stale); sp == nil || sp.Cat != "fresh" || sp.Link != 0 {
		t.Fatalf("refilled slot %d = %+v", stale, sp)
	}
}

// A log that is Reset refills the blocks it has: recording the same
// run again allocates nothing.
func TestSpanLogRefillAllocFree(t *testing.T) {
	s := NewSpans()
	run := func() {
		s.Reset()
		for i := 0; i < 3000; i++ {
			s.Complete(ticksOf(i), ticksOf(i+1), "dispatch", "worker", 1, SpanID(i), "")
		}
	}
	run()
	if allocs := testing.AllocsPerRun(5, run); allocs != 0 {
		t.Fatalf("refilling a Reset log allocates %.0f times, want 0", allocs)
	}
	if s.N() != 3000 || len(s.blocks) != (3000+spanBlock-1)/spanBlock {
		t.Fatalf("N = %d in %d blocks", s.N(), len(s.blocks))
	}
}

// BenchmarkFlightRecord measures the always-on black-box hot path: a
// span recorded in the flight ring plus one event record.
// This is what every node pays per dispatch with telemetry off, so it
// must stay at 0 allocs/op (gated via BENCH_kernel.json).
func BenchmarkFlightRecord(b *testing.B) {
	f := NewFlight(DefaultFlightSpans, DefaultFlightEvents)
	r := f.Ring()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r.Complete(ticks.Ticks(i), ticks.Ticks(i+1), "dispatch", "worker", 1, 0, "")
		f.Event(ticks.Ticks(i), "sched.dispatch", "granted")
	}
}

// The same contract as a plain test, so `go test` catches an
// allocation regression even without the benchmark gate.
func TestFlightRecordAllocFree(t *testing.T) {
	f := NewFlight(DefaultFlightSpans, DefaultFlightEvents)
	r := f.Ring()
	var i int
	allocs := testing.AllocsPerRun(1000, func() {
		r.Complete(ticks.Ticks(i), ticks.Ticks(i+1), "dispatch", "worker", 1, 0, "")
		f.Event(ticks.Ticks(i), "sched.dispatch", "granted")
		i++
	})
	if allocs != 0 {
		t.Fatalf("flight record path allocates %.1f per op, want 0", allocs)
	}
}

// --- tag helpers ---

func TestNodeTags(t *testing.T) {
	if NodeTag(0) != 1 || NodeTag(3) != 4 {
		t.Fatal("NodeTag must be index+1")
	}
	if i, ok := TagIndex(NodeTag(5)); !ok || i != 5 {
		t.Fatal("TagIndex must invert NodeTag")
	}
	if _, ok := TagIndex(CoordTag); ok {
		t.Fatal("CoordTag is not a node index")
	}
	if _, ok := TagIndex(0); ok {
		t.Fatal("0 is the unset tag, not a node index")
	}
	for tag, want := range map[int32]string{CoordTag: "coord", 0: "-", 1: "node 0", 7: "node 6"} {
		if got := TagString(tag); got != want {
			t.Errorf("TagString(%d) = %q, want %q", tag, got, want)
		}
	}
}
