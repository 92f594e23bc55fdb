package invariant

import (
	"fmt"

	"repro/internal/task"
	"repro/internal/telemetry"
	"repro/internal/ticks"
)

// Recording a violation is the Checker's cold path: it runs only when
// a guarantee broke, and may format and allocate freely.

// Cursor locates a violation in the observer event stream: Seq is the
// ordinal of the observer callback that exposed it (counting every
// callback the Checker received), At the virtual time.
type Cursor struct {
	Seq int64
	At  ticks.Ticks
}

// Violation is one detected guarantee breach.
type Violation struct {
	Kind   string  // "silent-miss", "overcommit", "structural", "stuck-period"
	Task   task.ID // task.NoID for system-wide breaches
	At     ticks.Ticks
	Cursor Cursor
	Detail string
}

func (v Violation) String() string {
	return fmt.Sprintf("[%d @%d] %s task=%d: %s", v.Cursor.Seq, int64(v.At), v.Kind, int64(v.Task), v.Detail)
}

// EnableTelemetry counts every recorded violation on
// "invariant.violations" and mirrors each as an instant decision span.
// A nil Set leaves the Checker silent.
func (c *Checker) EnableTelemetry(t *telemetry.Set) {
	c.telViolations = t.Reg().Counter("invariant.violations")
	c.telSpans = t.SpanLog()
}

func (c *Checker) report(kind string, id task.ID, at ticks.Ticks, detail string) {
	v := Violation{
		Kind:   kind,
		Task:   id,
		At:     at,
		Cursor: Cursor{Seq: c.seq, At: at},
		Detail: detail,
	}
	c.violations = append(c.violations, v)
	c.telViolations.Inc()
	tid := int64(id)
	if id == task.NoID {
		tid = telemetry.NoTask
	}
	c.telSpans.Instant(at, "invariant", kind, tid, 0, detail)
	if c.log != nil {
		c.log.Record(at, "invariant."+kind, v.String())
	}
}

func (c *Checker) reportSilentMiss(id task.ID, p *period, at ticks.Ticks) {
	c.report("silent-miss", id, at, fmt.Sprintf(
		"period [%d,%d) delivered %d of granted %d with no recorded miss, block, or completion",
		int64(p.start), int64(p.deadline), int64(p.delivered), int64(p.cpu)))
}

// reportOvercommit records the committed sum exceeding the schedulable
// fraction, once per distinct pair of values (the same overcommitted
// set would otherwise be reported at every period start).
func (c *Checker) reportOvercommit(at ticks.Ticks, avail ticks.Frac) {
	detail := fmt.Sprintf("committed fraction %.6f exceeds schedulable %.6f",
		c.sum.Float(), avail.Float())
	if c.seen[detail] {
		return
	}
	c.seen[detail] = true
	c.report("overcommit", task.NoID, at, detail)
}

func (c *Checker) reportStuckPeriod(id task.ID, p *period, now ticks.Ticks) {
	c.report("stuck-period", id, now, fmt.Sprintf(
		"period [%d,%d) deadline passed %d ticks ago and was never rolled",
		int64(p.start), int64(p.deadline), int64(now-p.deadline)))
}
