package telemetry

import (
	"strconv"

	"repro/internal/ticks"
)

// SpanID identifies a recorded span inside one Spans log. Zero means
// "no span" and is what every recording method returns when the log is
// nil, so parent links thread through disabled telemetry harmlessly.
type SpanID int32

// NoTask marks a span that belongs to the distributor itself rather
// than to any scheduled task (admission tests, policy decisions,
// governor actions).
const NoTask int64 = -1

// Node tags locate spans in a cluster manifest. The zero tag means
// "unset" — a single-node manifest, or a Link whose target lives in
// the same log. CoordTag marks the fleet coordinator; NodeTag(i)
// marks fleet node i. The +1 offset exists so node 0 is distinguishable
// from "unset" under omitempty JSON encoding.
const CoordTag int32 = -1

// NodeTag returns the span tag for fleet node i.
func NodeTag(i int) int32 { return int32(i) + 1 }

// TagIndex inverts NodeTag: it reports the node index a positive tag
// names, and ok=false for the zero tag and CoordTag.
func TagIndex(tag int32) (int, bool) {
	if tag > 0 {
		return int(tag) - 1, true
	}
	return 0, false
}

// TagString renders a tag for human-facing output: "coord", "node N",
// or "-" for unset.
func TagString(tag int32) string {
	switch {
	case tag == CoordTag:
		return "coord"
	case tag > 0:
		return "node " + strconv.Itoa(int(tag)-1)
	default:
		return "-"
	}
}

// Span is one begin/end decision record. Cat is the span taxonomy
// bucket (docs/OBSERVABILITY.md): "period", "dispatch", "admission",
// "policy", "governor", "degrade", "fault", and at the fleet layer
// "fleet". Parent is the span that caused this one inside the same
// log (a dispatch's parent is the period rollover that made the task
// runnable), zero for none. Task is the task the span runs on behalf
// of, NoTask for distributor-level decisions. A span with End == Begin
// is an instant.
//
// Node is the span's origin tag in a cluster manifest (CoordTag or
// NodeTag(i)); zero in single-node manifests. Link is a cross-log
// causal edge to the span's predecessor in a guarantee's lifecycle:
// before stitching, (LinkNode, Link) addresses a span in another
// node's log; after StitchCluster rebases IDs, Link holds the global
// span ID and LinkNode is cleared.
type Span struct {
	ID       SpanID      `json:"id"`
	Parent   SpanID      `json:"parent,omitempty"`
	Cat      string      `json:"cat"`
	Name     string      `json:"name"`
	Task     int64       `json:"task"`
	Begin    ticks.Ticks `json:"begin"`
	End      ticks.Ticks `json:"end"`
	Detail   string      `json:"detail,omitempty"`
	Node     int32       `json:"node,omitempty"`
	Link     SpanID      `json:"link,omitempty"`
	LinkNode int32       `json:"link_node,omitempty"`
}

// Spans is a log of decision spans. The zero value is an unbounded
// append-only log, ready to use; NewSpansRing builds a fixed-capacity
// ring that retains only the last max spans (the flight-recorder
// store). The nil *Spans records nothing and returns SpanID 0 from
// every method. Like the rest of the package it is single-goroutine
// and virtual-time native.
//
// IDs are assigned sequentially from 1 regardless of retention mode,
// so a ring's resident spans always carry a contiguous ID range
// (FirstID..Total) and a slot's ID doubles as its generation: SetLink
// on an evicted ID fails the ID-equality check and is inert, the same
// idiom as the PR 4 event pool.
type Spans struct {
	spans []Span
	total int64 // spans ever recorded; the next ID is total+1
	max   int   // >0: ring capacity; 0: unbounded
	head  int   // full ring: the slot the next span overwrites, total mod max
}

// NewSpans returns an empty unbounded span log.
func NewSpans() *Spans { return &Spans{} }

// NewSpansRing returns a span log that retains only the most recent
// max spans, overwriting the oldest in place once full. max must be
// positive.
func NewSpansRing(max int) *Spans {
	if max <= 0 {
		max = 1
	}
	// The whole ring is allocated up front so the fill phase appends
	// within capacity: record never allocates, from the first span on.
	return &Spans{spans: make([]Span, 0, max), max: max}
}

// Reset empties the log for the next run and keeps its storage and
// mode. IDs start again at 1; until they are reassigned, every ID
// the previous run handed out is above Total and fails slot's checks,
// so SetLink and FindLast on it are inert.
func (s *Spans) Reset() {
	s.spans = s.spans[:0]
	s.total, s.head = 0, 0
}

// Reserve grows the log's capacity ahead of an append-heavy run, the
// same pay-as-you-go idiom as trace.Recorder.Reserve. Rings ignore it:
// their storage is fixed at construction.
func (s *Spans) Reserve(n int) {
	if s == nil || s.max > 0 || n <= cap(s.spans)-len(s.spans) {
		return
	}
	grown := make([]Span, len(s.spans), len(s.spans)+n)
	copy(grown, s.spans)
	s.spans = grown
}

// put stores *sp (whose ID the caller has already assigned as the next
// sequential ID) and advances the total. In ring mode the slot for ID
// k is (k-1) mod max, which coincides with plain append order until
// the ring is full, so the steady state allocates nothing. A full
// ring does not divide to find that slot: IDs are sequential, so head
// — zero when the ring fills, wrapping at max — is the same number
// slot computes. The span travels by pointer and is copied once, into
// its slot.
func (s *Spans) put(sp *Span) {
	if s.max > 0 && len(s.spans) == s.max {
		s.spans[s.head] = *sp
		if s.head++; s.head == s.max {
			s.head = 0
		}
	} else {
		s.spans = append(s.spans, *sp)
	}
	s.total++
}

// slot returns the live storage for id, or nil if id is zero, not yet
// assigned, or evicted from a ring (generation check: the slot must
// still carry the asked-for ID).
func (s *Spans) slot(id SpanID) *Span {
	if s == nil || id <= 0 || int64(id) > s.total {
		return nil
	}
	var i int
	if s.max > 0 {
		i = int((int64(id) - 1) % int64(s.max))
		if i >= len(s.spans) {
			return nil
		}
	} else {
		i = int(id) - 1
	}
	if sp := &s.spans[i]; sp.ID == id {
		return sp
	}
	return nil
}

// Complete records a span from begin to end and returns its ID, for
// child spans' parent links and for SetLink. Every span is recorded
// closed: the simulator knows a decision's extent when it records it.
func (s *Spans) Complete(begin, end ticks.Ticks, cat, name string, tsk int64, parent SpanID, detail string) SpanID {
	if s == nil {
		return 0
	}
	id := SpanID(s.total + 1)
	s.put(&Span{
		ID: id, Parent: parent, Cat: cat, Name: name, Task: tsk,
		Begin: begin, End: end, Detail: detail,
	})
	return id
}

// Instant records a zero-duration decision point.
func (s *Spans) Instant(at ticks.Ticks, cat, name string, tsk int64, parent SpanID, detail string) SpanID {
	return s.Complete(at, at, cat, name, tsk, parent, detail)
}

// SetLink attaches a cross-log causal edge to span id: its lifecycle
// predecessor is span target in the log tagged linkNode (CoordTag,
// NodeTag(i), or zero for this same log). Zero, stale, and
// ring-evicted IDs are no-ops, so linking a span the black box has
// already recycled is harmless.
func (s *Spans) SetLink(id SpanID, linkNode int32, target SpanID) {
	if target <= 0 {
		return
	}
	if sp := s.slot(id); sp != nil {
		sp.Link = target
		sp.LinkNode = linkNode
	}
}

// FindLast returns the ID of the most recently recorded span with the
// given category, or zero if none is resident. The scan walks
// backwards over live storage only, so it is deterministic and
// bounded by the retention window.
func (s *Spans) FindLast(cat string) SpanID {
	if s == nil {
		return 0
	}
	lo := s.firstID()
	for id := SpanID(s.total); id >= lo; id-- {
		if sp := s.slot(id); sp != nil && sp.Cat == cat {
			return id
		}
	}
	return 0
}

// firstID reports the lowest resident span ID (1 for unbounded logs).
func (s *Spans) firstID() SpanID {
	if s == nil || s.total == 0 {
		return 1
	}
	if s.max > 0 && s.total > int64(len(s.spans)) {
		return SpanID(s.total - int64(len(s.spans)) + 1)
	}
	return 1
}

// N reports the number of resident spans (for rings, at most the
// capacity).
func (s *Spans) N() int {
	if s == nil {
		return 0
	}
	return len(s.spans)
}

// Total reports the number of spans ever recorded, including any a
// ring has since evicted.
func (s *Spans) Total() int64 {
	if s == nil {
		return 0
	}
	return s.total
}

// All calls yield for each resident span in ID order until yield
// returns false.
func (s *Spans) All(yield func(Span) bool) {
	if s == nil {
		return
	}
	lo := s.firstID()
	for id := lo; int64(id) <= s.total; id++ {
		if sp := s.slot(id); sp != nil {
			if !yield(*sp) {
				return
			}
		}
	}
}

// Resident returns the resident spans in ID order for a caller that
// reads them and lets go before the log records again — the cluster
// stitch, which copies every span into the stitched manifest anyway.
// While nothing has been evicted that is the log's own storage: there
// is no reference below the window for Export to clear. A ring that
// has wrapped is neither in ID order nor free of such references, so
// it gets Export's copy.
func (s *Spans) Resident() []Span {
	if s == nil || s.total == 0 || s.firstID() != 1 {
		return s.Export()
	}
	return s.spans
}

// Export returns a copy of the resident spans in ID order for
// manifests. For rings, references that point below the retention
// window — a Parent or same-log Link whose target was evicted — are
// cleared, so an exported log never dangles into spans it does not
// contain.
func (s *Spans) Export() []Span { return s.exportLast(s.N()) }

// exportLast is Export over the newest n resident spans only, with
// the window's lower edge where a ring of capacity n would have it: a
// Flight fronting an unbounded log dumps what its own ring would hold.
func (s *Spans) exportLast(n int) []Span {
	if s == nil || s.total == 0 {
		return nil
	}
	lo := s.firstID()
	if w := SpanID(s.total - int64(n) + 1); w > lo {
		lo = w
	}
	out := make([]Span, 0, int(s.total-int64(lo))+1)
	for id := lo; int64(id) <= s.total; id++ {
		sp := s.slot(id)
		if sp == nil {
			continue
		}
		cp := *sp
		if cp.Parent != 0 && cp.Parent < lo {
			cp.Parent = 0
		}
		if cp.Link != 0 && cp.LinkNode == 0 && cp.Link < lo {
			cp.Link = 0
		}
		out = append(out, cp)
	}
	return out
}
