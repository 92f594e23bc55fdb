package telemetry

import "repro/internal/ticks"

// Flight is a node's black-box flight recorder: a fixed-capacity,
// generation-checked ring of the most recent spans plus a ring of the
// most recent event-log lines. It is always on and allocation-free in
// the steady state — recording overwrites slots in place — and is only
// read when something goes wrong: the fleet dumps it into a
// post-mortem FlightDump when the invariant checker fires, the
// crash-conservation ledger breaks, or the node itself crashes.
//
// The span store is a ring-mode Spans log (slot for ID k is (k-1) mod
// cap), so End/SetLink on spans the ring has recycled fail the slot's
// ID-equality check and are inert — the same generation idiom as the
// PR 4 event pool. A Flight either IS a node's span log (flight-only
// retention, the fleet default: the node records into Ring) or fronts
// the unbounded log its owner keeps (Front; full retention for
// cluster-manifest runs) and dumps that log's tail. Either way a span
// is stored once, and the ring is only allocated by the first Ring.
type Flight struct {
	ring    *Spans // nil until Ring is first called
	spanCap int    // the ring's capacity, and a dump's window
	log     *Spans // non-nil: the owner's full log, dumped in place of ring
	events  []LogEvent
	eseq    int64 // events ever recorded; next slot is eseq % cap(events)
	ecap    int
}

// DefaultFlightSpans and DefaultFlightEvents size a Flight when the
// caller does not: enough span history to cover several epochs of a
// busy node, and the tail of its fault/event log.
const (
	DefaultFlightSpans  = 256
	DefaultFlightEvents = 64
)

// NewFlight returns a flight recorder with the given ring capacities;
// non-positive values select the defaults. The event ring is allocated
// up front and the span ring by the first Ring, so recording never
// allocates, and a recorder that only ever fronts a log holds no ring.
func NewFlight(spanCap, eventCap int) *Flight {
	if spanCap <= 0 {
		spanCap = DefaultFlightSpans
	}
	if eventCap <= 0 {
		eventCap = DefaultFlightEvents
	}
	return &Flight{
		spanCap: spanCap,
		events:  make([]LogEvent, 0, eventCap),
		ecap:    eventCap,
	}
}

// Reset returns the recorder to its as-built state for the next run —
// both rings empty, no log fronted — and keeps their storage, so a
// recorder that is reused records without allocating from its first
// span on, like a new one.
func (f *Flight) Reset() {
	if f.ring != nil {
		f.ring.Reset()
	}
	f.log = nil
	f.events = f.events[:0]
	f.eseq = 0
}

// Ring exposes the flight recorder's span ring so it can serve as a
// node's Spans log directly (flight-only retention), allocating it on
// the first call. Nil-safe.
func (f *Flight) Ring() *Spans {
	if f == nil {
		return nil
	}
	if f.ring == nil {
		f.ring = NewSpansRing(f.spanCap)
	}
	return f.ring
}

// Front makes the recorder the black box of log, a span log its owner
// keeps in full and records into directly: Dump exports log's newest
// spans, as many as the ring holds, under the ring's own Export rule,
// so the dump is what it would be had the ring been fed every record.
func (f *Flight) Front(log *Spans) { f.log = log }

// Event records one event-log line into the event ring; an EventLog
// handed this recorder (MirrorTo) calls it on every Record. Nil-safe.
func (f *Flight) Event(at ticks.Ticks, kind, detail string) {
	if f == nil {
		return
	}
	e := LogEvent{At: at, Kind: kind, Detail: detail}
	if len(f.events) < f.ecap {
		f.events = append(f.events, e)
	} else {
		f.events[int(f.eseq%int64(f.ecap))] = e
	}
	f.eseq++
}

// FlightDump is one post-mortem black-box artifact: the flight
// recorder's resident spans (a contiguous ID range ending at
// SpansTotal) and event tail at the moment a breach fired. Cluster
// manifests carry one per dump under Manifest.FlightDumps.
type FlightDump struct {
	Node          int32       `json:"node,omitempty"` // CoordTag or NodeTag(i)
	Reason        string      `json:"reason"`         // "node-crash", "invariant", "fleet-conservation", "stall"
	At            ticks.Ticks `json:"at"`
	SpansTotal    int64       `json:"spans_total"`
	SpansDropped  int64       `json:"spans_dropped"`
	EventsTotal   int64       `json:"events_total"`
	EventsDropped int64       `json:"events_dropped"`
	Spans         []Span      `json:"spans,omitempty"`
	Events        []LogEvent  `json:"events,omitempty"`
}

// Dump snapshots the flight recorder into a post-mortem artifact. The
// recorder keeps running afterwards; dumping never clears it.
func (f *Flight) Dump(node int32, reason string, at ticks.Ticks) FlightDump {
	d := FlightDump{Node: node, Reason: reason, At: at}
	if f == nil {
		return d
	}
	spans := f.ring
	if f.log != nil {
		spans = f.log
	}
	d.Spans = spans.exportLast(f.spanCap)
	for i := range d.Spans {
		// Stamp the origin tag so a dump validates stand-alone and
		// inside a node-tagged cluster manifest alike.
		d.Spans[i].Node = node
	}
	d.SpansTotal = spans.Total()
	d.SpansDropped = d.SpansTotal - int64(len(d.Spans))
	d.EventsTotal = f.eseq
	d.EventsDropped = f.eseq - int64(len(f.events))
	if len(f.events) > 0 {
		d.Events = make([]LogEvent, 0, len(f.events))
		// Oldest first: the ring's write cursor is eseq mod cap.
		start := 0
		if f.eseq > int64(len(f.events)) {
			start = int(f.eseq % int64(f.ecap))
		}
		for i := 0; i < len(f.events); i++ {
			d.Events = append(d.Events, f.events[(start+i)%len(f.events)])
		}
	}
	return d
}
