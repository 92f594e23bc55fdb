package telemetry

import (
	"fmt"
	"strings"

	"repro/internal/ticks"
)

// LogEvent is one timestamped occurrence in a simulation run: a fault
// injection, an invariant violation, a degradation decision. Events
// are plain data so fault scenarios and checkers can log without
// pulling in their packages' types; the JSON tags are the manifest's.
type LogEvent struct {
	At     ticks.Ticks `json:"at"`               // virtual time of the occurrence
	Kind   string      `json:"kind"`             // stable machine-readable kind, e.g. "fault.overrun"
	Detail string      `json:"detail,omitempty"` // human-readable specifics
}

// EventLog is an append-only, deterministic record of LogEvents. The
// zero value is ready to use. Like a Snapshot, it merges in
// caller-fixed order so sweep aggregation is worker-count invariant.
type EventLog struct {
	events []LogEvent
	flight *Flight
}

// Record appends one event.
func (l *EventLog) Record(at ticks.Ticks, kind, detail string) {
	l.events = append(l.events, LogEvent{At: at, Kind: kind, Detail: detail})
	l.flight.Event(at, kind, detail)
}

// MirrorTo makes every subsequent Record land in f's event ring as
// well — how a node's event log feeds its black box. Merge does not
// mirror: merged events were already recorded on their source log.
func (l *EventLog) MirrorTo(f *Flight) { l.flight = f }

// Reset empties the log for the next run and keeps its storage and
// its flight recorder.
func (l *EventLog) Reset() { l.events = l.events[:0] }

// Merge appends all of o's events to l, leaving o unchanged. Events
// keep their relative order; callers merge parts in a fixed order.
func (l *EventLog) Merge(o *EventLog) {
	if o == nil || len(o.events) == 0 {
		return
	}
	l.events = append(l.events, o.events...)
}

// N reports the number of recorded events.
func (l *EventLog) N() int { return len(l.events) }

// Events returns a copy of the recorded events, in order. Callers
// that only scan — checkers polling for a kind, exporters walking the
// log — should use All instead: this copies the whole slice per call.
func (l *EventLog) Events() []LogEvent {
	out := make([]LogEvent, len(l.events))
	copy(out, l.events)
	return out
}

// All calls yield for each recorded event in order until yield returns
// false. It allocates nothing, so it is the right shape for callers
// that poll the log in a loop. The log must not be appended to from
// inside yield.
func (l *EventLog) All(yield func(LogEvent) bool) {
	for i := range l.events {
		if !yield(l.events[i]) {
			return
		}
	}
}

// CountKind reports how many events have exactly the given kind.
func (l *EventLog) CountKind(kind string) int {
	n := 0
	l.All(func(e LogEvent) bool {
		if e.Kind == kind {
			n++
		}
		return true
	})
	return n
}

// KindPrefixCount reports how many events have a kind beginning with
// the given prefix (e.g. "fault." counts all injections).
func (l *EventLog) KindPrefixCount(prefix string) int {
	n := 0
	l.All(func(e LogEvent) bool {
		if strings.HasPrefix(e.Kind, prefix) {
			n++
		}
		return true
	})
	return n
}

// String renders the log one event per line.
func (l *EventLog) String() string {
	var b strings.Builder
	for i := range l.events {
		e := &l.events[i]
		fmt.Fprintf(&b, "%12d %-24s %s\n", int64(e.At), e.Kind, e.Detail)
	}
	return b.String()
}
