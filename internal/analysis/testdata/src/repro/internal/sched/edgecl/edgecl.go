// Package edgecl exercises closures passed as event handlers: the
// analyzers must look inside func literals handed to the kernel's
// timer API. detflow's taint reaches the closure through a captured
// variable, and spanpair audits the SetLink target inside the body.
package edgecl

import (
	"repro/internal/hostinfo"
	"repro/internal/sim"
	"repro/internal/telemetry"
)

func handlers(k *sim.Kernel, s *telemetry.Spans, h *telemetry.Histogram) {
	up := hostinfo.Uptime() // want "host-derived"
	k.At(5, func() {
		h.Observe(up)                                            // want "flows into"
		s.SetLink(s.Instant(5, "sched", "late", 0, 0, ""), 0, 7) // want "constant"
	})
}

// clean is the same handler shape fed only simulation state.
func clean(k *sim.Kernel, s *telemetry.Spans, h *telemetry.Histogram, now int64) {
	k.At(5, func() {
		h.Observe(now)
		id := s.Complete(now, now+1, "sched", "slice", 0, 0, "")
		s.SetLink(s.Instant(now+1, "sched", "next", 0, 0, ""), 0, id)
	})
}
