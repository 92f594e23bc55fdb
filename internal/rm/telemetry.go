package rm

import (
	"repro/internal/task"
	"repro/internal/telemetry"
	"repro/internal/ticks"
)

// rmTelemetry holds the Manager's pre-registered instrument handles.
// The zero value (all nil) records nothing: handle methods are no-ops
// on nil, so call sites instrument unconditionally. The Manager has no
// clock of its own — internal/core injects the kernel's Now so
// admission and degradation spans carry virtual timestamps.
type rmTelemetry struct {
	admitAccepted *telemetry.Counter
	admitRejected *telemetry.Counter
	recomputes    *telemetry.Counter
	fastPath      *telemetry.Counter
	consults      *telemetry.Counter
	invents       *telemetry.Counter
	sheds         *telemetry.Counter

	spans *telemetry.Spans
	clock interface{ Now() ticks.Ticks }
}

// EnableTelemetry registers the Manager's instruments with t and
// installs clock (the kernel) as the span timestamp source. A nil Set
// leaves every handle nil and the Manager silent; a nil clock pins span
// timestamps at zero (tests that exercise the Manager without a kernel).
func (m *Manager) EnableTelemetry(t *telemetry.Set, clock interface{ Now() ticks.Ticks }) {
	r := t.Reg()
	m.tel = rmTelemetry{
		admitAccepted: r.Counter("rm.admit.accepted"),
		admitRejected: r.Counter("rm.admit.rejected"),
		recomputes:    r.Counter("rm.grants.recompute"),
		fastPath:      r.Counter("rm.grants.fastpath"),
		consults:      r.Counter("rm.policy.consulted"),
		invents:       r.Counter("rm.policy.invented"),
		sheds:         r.Counter("rm.degrade.sheds"),
		spans:         t.SpanLog(),
		clock:         clock,
	}
}

func (m *Manager) telNow() ticks.Ticks {
	if m.tel.clock == nil {
		return 0
	}
	return m.tel.clock.Now()
}

// telAdmission records one admission verdict: the accept/reject
// counter plus an instant decision span naming the task and, on
// rejection, the dimension that denied it.
func (m *Manager) telAdmission(name string, id task.ID, accepted bool, why string) {
	tid := telemetry.NoTask
	if accepted {
		m.tel.admitAccepted.Inc()
		tid = int64(id)
	} else {
		m.tel.admitRejected.Inc()
	}
	m.tel.spans.Instant(m.telNow(), "admission", name, tid, 0, why)
}
