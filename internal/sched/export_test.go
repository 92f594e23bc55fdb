package sched

// AuditCorruption exposes one entry of the corruption table
// (audit_test.go) to the external tests, so that
// TestAuditMatchesNaiveOnCorruptedState and FuzzAuditGate damage the
// scheduler from one list.
type AuditCorruption struct {
	Name string
	// Live reports that a running scheduler survives the damage.
	Live bool
	// Apply damages s and reports false, having changed nothing, when s
	// lacks what the damage needs.
	Apply func(s *Scheduler) bool
}

// SpareTCBs reports how many dropped tasks' tcbs await a new task, for
// the churn oracle to see its tapes reach the recycled path.
func (s *Scheduler) SpareTCBs() int {
	n := 0
	for t := s.spare; t != nil; t = t.nextSpare {
		n++
	}
	return n
}

// AuditCorruptions is the corruption table.
var AuditCorruptions = func() []AuditCorruption {
	out := make([]AuditCorruption, len(auditCorruptions))
	for i, c := range auditCorruptions {
		out[i] = AuditCorruption{Name: c.name, Live: c.live, Apply: func(s *Scheduler) bool {
			return c.corrupt(s, s.tasksByID())
		}}
	}
	return out
}()
