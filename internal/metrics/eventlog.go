package metrics

import (
	"fmt"
	"strings"

	"repro/internal/ticks"
)

// Event is one timestamped occurrence in a simulation run: a fault
// injection, an invariant violation, a degradation decision. Events
// are plain data so fault scenarios and checkers can log without
// pulling in their packages' types.
type Event struct {
	At     ticks.Ticks // virtual time of the occurrence
	Kind   string      // stable machine-readable kind, e.g. "fault.overrun"
	Detail string      // human-readable specifics
}

// EventLog is an append-only, deterministic record of Events. The
// zero value is ready to use. Like Summary, it merges in caller-fixed
// order so sweep aggregation is worker-count invariant.
type EventLog struct {
	events []Event
	tee    func(at ticks.Ticks, kind, detail string)
}

// Record appends one event.
func (l *EventLog) Record(at ticks.Ticks, kind, detail string) {
	l.events = append(l.events, Event{At: at, Kind: kind, Detail: detail})
	if l.tee != nil {
		l.tee(at, kind, detail)
	}
}

// Tee mirrors every subsequent Record into fn as well — how a node's
// event log feeds its telemetry flight recorder without this package
// importing telemetry. Merge does not tee: merged events were already
// recorded (and teed) on their source log.
func (l *EventLog) Tee(fn func(at ticks.Ticks, kind, detail string)) {
	l.tee = fn
}

// Reset empties the log for the next run and keeps its storage and
// its tee.
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
func (l *EventLog) Events() []Event {
	out := make([]Event, len(l.events))
	copy(out, l.events)
	return out
}

// All calls yield for each recorded event in order until yield returns
// false. It allocates nothing, so it is the right shape for callers
// that poll the log in a loop. The log must not be appended to from
// inside yield.
func (l *EventLog) All(yield func(Event) bool) {
	for i := range l.events {
		if !yield(l.events[i]) {
			return
		}
	}
}

// CountKind reports how many events have exactly the given kind.
func (l *EventLog) CountKind(kind string) int {
	n := 0
	l.All(func(e Event) bool {
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
	l.All(func(e Event) bool {
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
