//rd:hotpath
package sched

import "slices"

// The invariant checker audits the scheduler once per round of period
// starts and after every structural change, so the walk below is on
// the recurring path: one pass over the task table, no allocation while
// the bookkeeping is consistent. Findings are formatted by the cold
// AuditReport.addf (auditreport.go).

// Audit checks the scheduler's structural invariants: the task table
// holds no dropped task, per-period budgets are conserved (0 ≤
// remaining ≤ granted CPU), grant assignments point at live sporadic
// tasks and carry no budget without one, and the CPU owner, if any, is
// a live task of the table, and a valid cached decision is the one a
// fresh scan makes (a write that skipped redecide leaves it stale).
// Queue membership is one tag per task, so there are no queues to hold
// against the table. Audit changes nothing: internal/invariant calls it from the checker, and
// fault-injection tests call it after each scenario. Findings are
// reported in a deterministic order.
func (s *Scheduler) Audit() AuditReport {
	var r AuditReport
	for _, t := range s.byID {
		if t.dropped {
			r.addf("task table holds dropped task %d (%s)", t.id, t.name)
		}
		if t.remaining < 0 || t.remaining > t.grant.Entry.CPU {
			r.addf("task %d (%s) budget not conserved: remaining %v of granted %v",
				t.id, t.name, t.remaining, t.grant.Entry.CPU)
		}
		if t.ssCurrent != nil && !slices.Contains(s.sporadics, t.ssCurrent) {
			r.addf("task %d (%s) holds a grant assignment to removed sporadic task %d (%s)",
				t.id, t.name, t.ssCurrent.id, t.ssCurrent.name)
		}
		if t.ssCurrent == nil && t.ssAssignLeft != 0 {
			r.addf("task %d (%s) has %v assignment budget but no assignee",
				t.id, t.name, t.ssAssignLeft)
		}
	}

	// The CPU owner, if any, is a live task.
	if s.running != nil {
		if s.running.dropped {
			r.addf("running task %d (%s) was dropped", s.running.id, s.running.name)
		} else if s.find(s.running.id) != s.running {
			r.addf("running task %d (%s) not in the task table", s.running.id, s.running.name)
		}
	}

	if s.decValid {
		if d := s.decide(); d.id() != s.dec.id() || d.kind != s.dec.kind || d.bound != s.dec.bound {
			r.addf("cached decision (task %d, %v, bound %v) is stale: a fresh scan decides (task %d, %v, bound %v)",
				s.dec.id(), s.dec.kind, s.dec.bound, d.id(), d.kind, d.bound)
		}
	}
	return r
}
