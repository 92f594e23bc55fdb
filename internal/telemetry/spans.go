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
//
// Both modes store spans in blocks of spanBlock: slot i is
// blocks[i/spanBlock][i%spanBlock], where i is ID−1, modulo the
// capacity in a ring. A ring's blocks are allocated up front; an
// unbounded log allocates a block as it reaches it and never copies
// one, and Reset keeps them all for the next run to refill in order.
type Spans struct {
	blocks [][]Span
	total  int64 // spans ever recorded; the next ID is total+1
	max    int   // >0: ring capacity; 0: unbounded
	next   int   // the slot the next span goes to: total, wrapped at max in a ring
}

// spanBlock is the spans in one storage block: 24 KiB.
const spanBlock = 256

// NewSpans returns an empty unbounded span log.
func NewSpans() *Spans { return &Spans{} }

// NewSpansRing returns a span log that retains only the most recent
// max spans, overwriting the oldest in place once full. max must be
// positive.
func NewSpansRing(max int) *Spans {
	if max <= 0 {
		max = 1
	}
	// The whole ring is allocated up front, so record never
	// allocates, from the first span on.
	s := &Spans{max: max}
	for i := 0; i < max; i += spanBlock {
		s.blocks = append(s.blocks, make([]Span, min(spanBlock, max-i)))
	}
	return s
}

// Reset empties the log for the next run and keeps its storage and
// mode. IDs start again at 1; until they are reassigned, every ID
// the previous run handed out is above Total and fails slot's checks,
// so SetLink and FindLast on it are inert.
func (s *Spans) Reset() { s.total, s.next = 0, 0 }

// put stores *sp (whose ID the caller has already assigned as the next
// sequential ID) in the next slot and advances the total. A ring does
// not divide to find that slot: IDs are sequential, so next — wrapping
// at max — is the same number slot computes. The span travels by
// pointer and is copied once, into its slot.
func (s *Spans) put(sp *Span) {
	b := s.next / spanBlock
	if b == len(s.blocks) {
		s.blocks = append(s.blocks, make([]Span, spanBlock))
	}
	s.blocks[b][s.next%spanBlock] = *sp
	s.total++
	if s.next++; s.next == s.max {
		s.next = 0
	}
}

// slot returns the live storage for id, or nil if id is zero, not yet
// assigned, or evicted from a ring (generation check: the slot must
// still carry the asked-for ID).
func (s *Spans) slot(id SpanID) *Span {
	if s == nil || id <= 0 || int64(id) > s.total {
		return nil
	}
	i := int(id) - 1
	if s.max > 0 {
		i %= s.max
	}
	if sp := &s.blocks[i/spanBlock][i%spanBlock]; sp.ID == id {
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

// SetDetail fills in span id's detail after it was recorded. Zero,
// stale, and ring-evicted IDs are no-ops, as for SetLink.
func (s *Spans) SetDetail(id SpanID, detail string) {
	if sp := s.slot(id); sp != nil {
		sp.Detail = detail
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
	if s != nil && s.max > 0 && s.total > int64(s.max) {
		return SpanID(s.total - int64(s.max) + 1)
	}
	return 1
}

// N reports the number of resident spans (for rings, at most the
// capacity).
func (s *Spans) N() int {
	if s == nil {
		return 0
	}
	return int(s.total - int64(s.firstID()) + 1)
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
	lo := max(s.firstID(), SpanID(s.total-int64(n)+1))
	out := s.appendFrom(make([]Span, 0, int(s.total-int64(lo))+1), lo)
	for i := range out {
		sp := &out[i]
		if sp.Parent < lo {
			sp.Parent = 0
		}
		if sp.LinkNode == 0 && sp.Link < lo {
			sp.Link = 0
		}
	}
	return out
}

// appendFrom appends the resident spans from ID lo on to out, in ID
// order, a block's run at a time.
func (s *Spans) appendFrom(out []Span, lo SpanID) []Span {
	if s == nil {
		return out
	}
	i := int(lo) - 1
	if s.max > 0 {
		i %= s.max
	}
	for n := int(s.total - int64(lo) + 1); n > 0; {
		run := s.blocks[i/spanBlock][i%spanBlock:]
		run = run[:min(n, len(run))]
		out = append(out, run...)
		n -= len(run)
		if i += len(run); i == s.max {
			i = 0
		}
	}
	return out
}
