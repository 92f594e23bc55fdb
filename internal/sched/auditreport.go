package sched

import "fmt"

// AuditReport lists structural-invariant breaches found by Audit. An
// empty report (len(Findings) == 0) means the scheduler's bookkeeping
// is internally consistent.
type AuditReport struct {
	Findings []string
}

// OK reports whether the audit found nothing.
func (r AuditReport) OK() bool { return len(r.Findings) == 0 }

// addf records one finding. It is the audit's only formatting site and
// runs only when something is wrong, which keeps the walk in audit.go
// allocation-free on a consistent scheduler.
func (r *AuditReport) addf(format string, args ...any) {
	r.Findings = append(r.Findings, fmt.Sprintf(format, args...))
}
