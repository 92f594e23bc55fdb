// telemetry.go shadows the live instrument API surface so hotalloc
// fixtures resolve Registry.Counter/Gauge/Histogram/Lookup to methods
// on the named type Registry in package repro/internal/telemetry —
// the exact identities the analyzer gates on — and the handle types'
// Inc/Add/Set/Observe to plain (permitted) methods.
package telemetry

// Counter mirrors the live monotonic counter handle.
type Counter struct{ v uint64 }

// Inc is the hot-path API: allocation-free, nil-safe.
func (c *Counter) Inc() {}

// Add is the hot-path API: allocation-free, nil-safe.
func (c *Counter) Add(n uint64) {}

// Gauge mirrors the live last-value gauge handle.
type Gauge struct{ v int64 }

// Set is the hot-path API: allocation-free, nil-safe.
func (g *Gauge) Set(v int64) {}

// Histogram mirrors the live fixed-bucket histogram handle.
type Histogram struct{ counts []uint64 }

// Observe is the hot-path API: allocation-free, nil-safe.
func (h *Histogram) Observe(v int64) {}

// Registry mirrors the live by-name instrument registry. All of its
// methods are the cold wiring-time API.
type Registry struct{}

// Counter returns the named counter, creating it if needed.
func (r *Registry) Counter(name string) *Counter { return nil }

// Gauge returns the named gauge, creating it if needed.
func (r *Registry) Gauge(name string) *Gauge { return nil }

// Histogram returns the named histogram, creating it if needed.
func (r *Registry) Histogram(name string, width int64, bins int) *Histogram { return nil }

// Lookup finds an already-registered instrument by name.
func (r *Registry) Lookup(name string) (any, bool) { return nil, false }

// SpanID identifies a span within one Spans log.
type SpanID int64

// Spans mirrors the live span log: detflow treats its recording
// methods as sinks, and spanpair audits SetLink targets on it.
type Spans struct{ n int }

// Complete records an already-closed span.
func (s *Spans) Complete(begin, end int64, cat, name string, tsk int64, parent SpanID, detail string) SpanID {
	s.n++
	return SpanID(s.n)
}

// Instant records a zero-duration marker.
func (s *Spans) Instant(at int64, cat, name string, tsk int64, parent SpanID, detail string) SpanID {
	s.n++
	return SpanID(s.n)
}

// SetLink records a causal predecessor on an existing span; spanpair
// audits its target argument.
func (s *Spans) SetLink(id SpanID, linkNode int32, target SpanID) {}

// SetDetail fills in an existing span's detail; detflow treats it as a
// sink like Instant.
func (s *Spans) SetDetail(id SpanID, detail string) {}

// FindLast returns the newest resident span with the given category.
func (s *Spans) FindLast(cat string) SpanID { return SpanID(s.n) }

// EventLog mirrors the live append-only event log: detflow treats
// Record as a sink.
type EventLog struct{ n int }

// Record appends one event.
func (l *EventLog) Record(at int64, kind, detail string) { l.n++ }
