//rd:hotpath
package sched

// The invariant checker audits the scheduler once per round of period
// starts and after every structural change, so the walk below is on
// the recurring path: one pass over the three queues, one over the task
// table, no allocation while the bookkeeping is consistent. Findings
// are formatted by the cold AuditReport.addf (auditreport.go).

// Membership bits Audit writes into tcb.auditSeen: seenTable while
// stamping the task table, so that the queue walks can tell a live
// entry from a stray one without a lookup, and one bit per queue while
// walking the queues, read back while walking the task table.
const (
	seenTimeRemaining uint8 = 1 << iota
	seenTimeExpired
	seenOvertime
	seenTable
)

// seenOn marks t as found on a queue during audit pass epoch. The
// stamp makes marks from earlier passes read as clear, so no pass has
// to reset them.
func (t *tcb) seenOn(epoch uint64, bit uint8) {
	if t.auditEpoch != epoch {
		t.auditEpoch, t.auditSeen = epoch, 0
	}
	t.auditSeen |= bit
}

// Audit checks the scheduler's structural invariants: every queue
// entry belongs to a live task, removed tasks leave no dangling grant
// assignments, per-period budgets are conserved (0 ≤ remaining ≤
// granted CPU), and queue membership flags agree with the queues
// themselves. It changes nothing the scheduler acts on (it stamps
// audit-only marks on the records it visits): internal/invariant calls
// it from the checker, and fault-injection tests call it after each
// scenario. Findings are reported in a deterministic order.
func (s *Scheduler) Audit() AuditReport {
	var r AuditReport
	s.auditEpoch++
	epoch := s.auditEpoch
	for _, t := range s.byID {
		t.seenOn(epoch, seenTable)
	}

	// Paper queues hold only live, correctly-labelled tasks.
	s.auditPaperQueue(&r, "TimeRemaining", s.timeRemaining, qTimeRemaining, seenTimeRemaining)
	s.auditPaperQueue(&r, "TimeExpired", s.timeExpired, qTimeExpired, seenTimeExpired)
	for _, t := range s.overtimeQ {
		t.seenOn(epoch, seenOvertime)
		if t.dropped {
			r.addf("OvertimeRequested holds dropped task %d (%s)", t.id, t.name)
		}
		if t.auditSeen&seenTable == 0 {
			r.addf("OvertimeRequested holds task %d (%s) not in the task table", t.id, t.name)
		}
		if !t.overtime {
			r.addf("OvertimeRequested holds task %d (%s) with overtime flag clear", t.id, t.name)
		}
	}

	// The task table agrees with the queues, budgets are conserved,
	// and grant assignments point at live sporadic tasks.
	for _, sp := range s.sporadics {
		sp.auditEpoch = epoch
	}
	for _, t := range s.byID {
		var seen uint8
		if t.auditEpoch == epoch {
			seen = t.auditSeen
		}
		if t.dropped {
			r.addf("task table holds dropped task %d (%s)", t.id, t.name)
		}
		switch t.queue {
		case qTimeRemaining:
			if seen&seenTimeRemaining == 0 {
				r.addf("task %d (%s) tagged TimeRemaining but absent from the queue", t.id, t.name)
			}
		case qTimeExpired:
			if seen&seenTimeExpired == 0 {
				r.addf("task %d (%s) tagged TimeExpired but absent from the queue", t.id, t.name)
			}
		}
		if t.overtime != (seen&seenOvertime != 0) {
			r.addf("task %d (%s) overtime flag %v disagrees with queue membership", t.id, t.name, t.overtime)
		}
		if t.remaining < 0 || t.remaining > t.grant.Entry.CPU {
			r.addf("task %d (%s) budget not conserved: remaining %v of granted %v",
				t.id, t.name, t.remaining, t.grant.Entry.CPU)
		}
		if t.ssCurrent != nil && t.ssCurrent.auditEpoch != epoch {
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
		} else if s.running.auditEpoch != epoch || s.running.auditSeen&seenTable == 0 {
			r.addf("running task %d (%s) not in the task table", s.running.id, s.running.name)
		}
	}
	return r
}

// auditPaperQueue marks every entry of one paper queue as seen there
// and checks it is live, in the task table, and tagged for this queue.
func (s *Scheduler) auditPaperQueue(r *AuditReport, label string, q []*tcb, want queueID, bit uint8) {
	epoch := s.auditEpoch
	for _, t := range q {
		t.seenOn(epoch, bit)
		if t.dropped {
			r.addf("%s holds dropped task %d (%s)", label, t.id, t.name)
		}
		if t.auditSeen&seenTable == 0 {
			r.addf("%s holds task %d (%s) not in the task table", label, t.id, t.name)
		}
		if t.queue != want {
			r.addf("%s holds task %d (%s) whose queue tag is %d", label, t.id, t.name, t.queue)
		}
	}
}
