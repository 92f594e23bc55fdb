package sched

import (
	"repro/internal/telemetry"
	"repro/internal/ticks"
)

// schedTelemetry holds the Scheduler's pre-registered instrument
// handles and span log. The zero value (all nil) records nothing:
// handle methods are no-ops on nil, so the hot path (loop.go,
// sporadic.go) instruments unconditionally.
type schedTelemetry struct {
	dispatches [DispatchIdle + 1]*telemetry.Counter

	// ends classifies each fully-consumed dispatch slice by why it
	// ended (grant exhausted, EDF preemption, kernel event, horizon).
	ends [reasonLimit + 1]*telemetry.Counter

	rollovers       *telemetry.Counter
	misses          *telemetry.Counter
	exceptions      *telemetry.Counter
	sporadicSlices  *telemetry.Counter
	grantsCollected *telemetry.Counter

	qRemaining *telemetry.Gauge
	qExpired   *telemetry.Gauge
	qOvertime  *telemetry.Gauge

	sliceTicks *telemetry.Histogram

	spans *telemetry.Spans
}

// sliceBuckets is the geometry of the sched.dispatch.slice histogram:
// 1 ms buckets spanning 0–32 ms (the paper's periods are 10–60 ms, so
// slices beyond 32 ms land in overflow).
const sliceBuckets = 32

// wireTelemetry pre-registers the Scheduler's instruments — the cold
// half of the telemetry contract; the hot path only touches the
// handles stored here. A nil Set leaves every handle nil and the
// Scheduler silent.
func (s *Scheduler) wireTelemetry(t *telemetry.Set) {
	r := t.Reg()
	s.tel = schedTelemetry{
		dispatches: [DispatchIdle + 1]*telemetry.Counter{
			DispatchGranted:  r.Counter("sched.dispatch.granted"),
			DispatchOvertime: r.Counter("sched.dispatch.overtime"),
			DispatchGrace:    r.Counter("sched.dispatch.grace"),
			DispatchSporadic: r.Counter("sched.dispatch.sporadic"),
			DispatchIdle:     r.Counter("sched.dispatch.idle"),
		},
		ends: [reasonLimit + 1]*telemetry.Counter{
			reasonGrantEnd: r.Counter("sched.slice_end.grant"),
			reasonPreempt:  r.Counter("sched.slice_end.preempt"),
			reasonEvent:    r.Counter("sched.slice_end.event"),
			reasonLimit:    r.Counter("sched.slice_end.limit"),
		},
		rollovers:       r.Counter("sched.period.rollovers"),
		misses:          r.Counter("sched.deadline.misses"),
		exceptions:      r.Counter("sched.grace.exceptions"),
		sporadicSlices:  r.Counter("sched.sporadic.slices"),
		grantsCollected: r.Counter("sched.grants.collected"),
		qRemaining:      r.Gauge("sched.queue.time_remaining"),
		qExpired:        r.Gauge("sched.queue.time_expired"),
		qOvertime:       r.Gauge("sched.queue.overtime"),
		sliceTicks: r.Histogram("sched.dispatch.slice",
			int64(ticks.PerMillisecond), sliceBuckets),
		spans: t.SpanLog(),
	}
}
