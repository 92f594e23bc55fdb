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
	dispatchGranted  *telemetry.Counter
	dispatchOvertime *telemetry.Counter
	dispatchGrace    *telemetry.Counter
	dispatchSporadic *telemetry.Counter
	dispatchIdle     *telemetry.Counter

	// Slice-end classification: why each fully-consumed dispatch slice
	// ended (grant exhausted, EDF preemption, kernel event, horizon).
	endGrant   *telemetry.Counter
	endPreempt *telemetry.Counter
	endEvent   *telemetry.Counter
	endLimit   *telemetry.Counter

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
		dispatchGranted:  r.Counter("sched.dispatch.granted"),
		dispatchOvertime: r.Counter("sched.dispatch.overtime"),
		dispatchGrace:    r.Counter("sched.dispatch.grace"),
		dispatchSporadic: r.Counter("sched.dispatch.sporadic"),
		dispatchIdle:     r.Counter("sched.dispatch.idle"),
		endGrant:         r.Counter("sched.slice_end.grant"),
		endPreempt:       r.Counter("sched.slice_end.preempt"),
		endEvent:         r.Counter("sched.slice_end.event"),
		endLimit:         r.Counter("sched.slice_end.limit"),
		rollovers:        r.Counter("sched.period.rollovers"),
		misses:           r.Counter("sched.deadline.misses"),
		exceptions:       r.Counter("sched.grace.exceptions"),
		sporadicSlices:   r.Counter("sched.sporadic.slices"),
		grantsCollected:  r.Counter("sched.grants.collected"),
		qRemaining:       r.Gauge("sched.queue.time_remaining"),
		qExpired:         r.Gauge("sched.queue.time_expired"),
		qOvertime:        r.Gauge("sched.queue.overtime"),
		sliceTicks: r.Histogram("sched.dispatch.slice",
			int64(ticks.PerMillisecond), sliceBuckets),
		spans: t.SpanLog(),
	}
}

// telSliceEnd classifies a slice whose body consumed the entire
// offered span — the timer decided where it ended.
func (s *Scheduler) telSliceEnd(reason switchReason) {
	switch reason {
	case reasonGrantEnd:
		s.tel.endGrant.Inc()
	case reasonPreempt:
		s.tel.endPreempt.Inc()
	case reasonEvent:
		s.tel.endEvent.Inc()
	case reasonLimit:
		s.tel.endLimit.Inc()
	}
}
