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
