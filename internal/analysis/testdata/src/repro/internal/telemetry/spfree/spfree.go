// spfree holds spanpair negatives: the Complete/Instant recording
// forms, and SetLink targets legitimately sourced from the span API,
// parameters and fields.
package spfree

import "repro/internal/telemetry"

func closedForms(s *telemetry.Spans, at int64) {
	s.Complete(at, at+1, "sched", "slice", 0, 0, "")
	s.Instant(at, "sched", "mark", 0, 0, "")
}

func linkFromInstant(s *telemetry.Spans, at int64) {
	a := s.Instant(at, "fleet", "place", 0, 0, "")
	b := s.Instant(at+1, "admission", "t", 1, 0, "")
	s.SetLink(b, -1, a)
}

func linkFromFindLast(s *telemetry.Spans, at int64) {
	adm := s.FindLast("admission")
	coord := s.Instant(at, "fleet", "migrate", 0, 0, "")
	s.SetLink(adm, -1, coord)
}

func linkFromParam(s *telemetry.Spans, target telemetry.SpanID) {
	id := s.FindLast("admission")
	s.SetLink(id, -1, target)
}

type chainTip struct {
	span telemetry.SpanID
}

func linkFromField(s *telemetry.Spans, tip *chainTip) {
	id := s.FindLast("admission")
	s.SetLink(id, -1, tip.span)
}

func linkClosureParam(s *telemetry.Spans) {
	link := func(target telemetry.SpanID) {
		s.SetLink(s.FindLast("admission"), -1, target)
	}
	link(s.FindLast("fleet"))
}
