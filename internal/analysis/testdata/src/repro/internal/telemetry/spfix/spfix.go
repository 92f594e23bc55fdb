// spfix holds spanpair true positives: SetLink targets that never held
// a recorded span.
package spfix

import "repro/internal/telemetry"

func linkConstant(s *telemetry.Spans, at int64) {
	id := s.Instant(at, "fleet", "place", 0, 0, "")
	s.SetLink(id, 0, 7) // want "constant"
}

func linkZero(s *telemetry.Spans, at int64) {
	id := s.Instant(at, "fleet", "place", 0, 0, "")
	s.SetLink(id, -1, 0) // want "constant"
}

func linkNeverSpan(s *telemetry.Spans, at int64) {
	id := s.Instant(at, "fleet", "place", 0, 0, "")
	var target telemetry.SpanID
	s.SetLink(id, 0, target) // want "never holds a span ID"
}

func linkConstOnlyLocal(s *telemetry.Spans, at int64) {
	id := s.Instant(at, "fleet", "place", 0, 0, "")
	target := telemetry.SpanID(3)
	s.SetLink(id, 0, target) // want "never holds a span ID"
}
