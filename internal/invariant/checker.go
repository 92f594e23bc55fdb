// Package invariant implements a runtime guarantee checker for the
// ETI Resource Distributor. It rides the scheduler's Observer stream
// and independently re-derives the paper's contracts, so a fault —
// injected (internal/fault) or genuine — that breaks a guarantee is
// recorded rather than silently absorbed:
//
//   - Every granted task receives its grant each period, or the miss
//     is recorded (OnDeadlineMiss), or the task voluntarily completed
//     or blocked (§4.2 voids guarantees while blocked). A period that
//     ends short of its grant with none of those is a silent miss.
//   - The committed grant fractions never exceed the schedulable CPU
//     (§4.1's admission and grant arithmetic).
//   - The Scheduler's structural invariants hold: budgets conserved,
//     queues consistent, no dangling grant assignments after removal
//     (sched.Audit).
//
// The structural audit is O(N), so it does not run at every period
// start. Its detection contract:
//
//   - A finding that persists is reported within one round: NTasks()
//     period starts.
//   - A finding present after a structural change (a task started,
//     dropped, blocked or woken, a grant assigned, a sporadic task
//     removed — Scheduler.StructureGeneration) is reported at the next
//     period start. Both structural bugs found so far followed such a
//     change: a removal and a Sporadic Server assignment.
//   - Finish reports whatever is still present.
//   - A budget inconsistency can go unreported when its own task's next
//     period start resets the budget before the round's audit.
//
// The Checker never panics and never mutates the system it watches; it
// records Violations with trace cursors and keeps going, exactly so
// fault scenarios can run to completion and report everything found.
// It chains to an inner Observer, so tracing keeps working underneath.
//
// The observer callbacks in this file run on every dispatch and period
// start of a checked run, so the file is held to the hot-path rules: no
// allocation while the guarantees hold. Recording a violation — the
// Violation type, its formatting, the event-log mirror — lives in
// violation.go.
//
//rd:hotpath
package invariant

import (
	"repro/internal/rm"
	"repro/internal/sched"
	"repro/internal/sim"
	"repro/internal/task"
	"repro/internal/telemetry"
	"repro/internal/ticks"
)

// period tracks one open period of one task, from its OnPeriodStart to
// the OnPeriodStart that closes it.
type period struct {
	start, deadline ticks.Ticks
	cpu             ticks.Ticks // granted CPU this period
	delivered       ticks.Ticks // granted+grace CPU observed via OnDispatch
	present         bool        // the slot is in use: the task has had a period start
	missRecorded    bool        // the scheduler charged a recorded miss
	voided          bool        // the task blocked: guarantees void (§4.2)
	wentOvertime    bool        // the task ran overtime: it declared its grant done
}

// Checker is a sched.Observer that audits the guarantees as they are
// (or are not) delivered. Construct with New, wire as the system's
// Observer, then Bind the assembled components; or build both in a Shell.
type Checker struct {
	next sched.Observer

	k *sim.Kernel
	m *rm.Manager
	s *sched.Scheduler

	log *telemetry.EventLog // optional mirror of violations (Shell.Build)

	seq int64
	// open holds each task's current period, indexed by task ID — a
	// Manager hands IDs out densely from 1 and never reuses one. A
	// record is overwritten in place at every period start, so a steady
	// schedule opens and closes periods without allocating.
	open       []period
	violations []Violation
	seen       map[string]bool // dedupe for repeating structural findings

	// Cached committed-fraction sum, keyed by the Manager's grant
	// generation: committed sets are immutable between commits, so the
	// sum only needs re-deriving when a new set is installed.
	sumGen   uint64
	sum      ticks.Frac
	sumValid bool

	// The structural audit's cadence (OnPeriodStart): the period starts
	// seen since the last audit, and the Scheduler's structure
	// generation at it. (sinceAudit shares sumValid's word, which keeps
	// a Checker in its allocation size class.)
	sinceAudit int32
	auditGen   uint64

	periodsClosed int64

	// telViolations counts violations ("invariant.violations"), telSpans
	// mirrors each as an instant span (Shell.Build); nil is a no-op.
	telViolations *telemetry.Counter
	telSpans      *telemetry.Spans
}

var _ sched.Observer = (*Checker)(nil)

// New builds a Checker that forwards every event to next (nil for
// none). Call Bind before running the system.
func New(next sched.Observer) *Checker { return NewIn(nil, next) }

// NewIn is New in c's storage (a new Checker when c is nil): c forgets
// the system it watched and everything it recorded, and keeps only its
// open-period table and the storage of its finding set. The Checker c
// was is gone: whoever held it must not use it again.
func NewIn(c *Checker, next sched.Observer) *Checker {
	if c == nil {
		c = new(Checker)
	}
	seen := c.seen
	if seen == nil {
		seen = make(map[string]bool)
	}
	clear(seen)
	*c = Checker{next: next, open: c.open[:0], seen: seen}
	return c
}

// Bind attaches the assembled system so the Checker can cross-examine
// it (grant sums from the Manager, structural audits and per-period
// accounting from the Scheduler). Any argument may be nil; the checks
// needing it are skipped.
func (c *Checker) Bind(k *sim.Kernel, m *rm.Manager, s *sched.Scheduler) {
	c.k, c.m, c.s = k, m, s
}

// Violations returns a copy of everything recorded so far, in
// detection order.
func (c *Checker) Violations() []Violation {
	out := make([]Violation, len(c.violations))
	copy(out, c.violations)
	return out
}

// NViolations reports the violation count without copying the record
// — the cheap poll the fleet's barrier loop uses to decide whether a
// node's black box needs dumping.
func (c *Checker) NViolations() int { return len(c.violations) }

// openPeriod returns id's open period, nil when it has none.
func (c *Checker) openPeriod(id task.ID) *period {
	if uint(id) < uint(len(c.open)) && c.open[id].present {
		return &c.open[id]
	}
	return nil
}

// PeriodsClosed reports how many periods the Checker has audited —
// tests use it to prove the checker actually saw the workload.
func (c *Checker) PeriodsClosed() int64 { return c.periodsClosed }

// --- sched.Observer ---

// OnDispatch accumulates delivered granted CPU. Only the outer
// DispatchGranted and DispatchGrace spans count: DispatchSporadic
// spans are nested inside a server's or assigner's granted span and
// would double-count, and overtime/idle are not grant delivery.
func (c *Checker) OnDispatch(id task.ID, name string, from, to ticks.Ticks, kind sched.DispatchKind, level int) {
	c.seq++
	switch kind {
	case sched.DispatchGranted, sched.DispatchGrace:
		if p := c.openPeriod(id); p != nil {
			p.delivered += to - from
		}
	case sched.DispatchOvertime:
		// Requesting overtime declares the granted work done (§4.2's
		// OvertimeRequested queue holds tasks "that ran out of grant");
		// a task observed running overtime relinquished whatever grant
		// it had left, so a shortfall this period is voluntary.
		if p := c.openPeriod(id); p != nil {
			p.wentOvertime = true
		}
	}
	if c.next != nil {
		c.next.OnDispatch(id, name, from, to, kind, level)
	}
}

// OnPeriodStart closes the task's previous period (auditing it) and
// opens the new one. It also runs the system-wide checks at what is the
// natural heartbeat of the schedule: the committed fraction whenever a
// new grant set was committed, and the structural audit once per round
// of NTasks() period starts and at the first period start after a
// structural change (Scheduler.StructureGeneration). So a checked
// period start costs O(1) amortised, not the O(N) of a full audit.
func (c *Checker) OnPeriodStart(id task.ID, start, deadline ticks.Ticks, level int, cpu ticks.Ticks) {
	c.seq++
	if p := c.openPeriod(id); p != nil {
		c.closePeriod(id, p, start)
	}
	if id >= 0 {
		for int(id) >= len(c.open) {
			c.open = append(c.open, period{})
		}
		c.open[id] = period{present: true, start: start, deadline: deadline, cpu: cpu}
	}
	c.checkCommitted(start)
	if c.s != nil {
		c.sinceAudit++
		if c.s.StructureGeneration() != c.auditGen || int(c.sinceAudit) >= c.s.NTasks() {
			c.checkStructure(start)
		}
	}
	if c.next != nil {
		c.next.OnPeriodStart(id, start, deadline, level, cpu)
	}
}

// OnDeadlineMiss marks the open period as charged: the scheduler
// recorded the violation, which is exactly what the paper's contract
// requires of an overloaded or misbehaving configuration.
func (c *Checker) OnDeadlineMiss(id task.ID, deadline, undelivered ticks.Ticks) {
	c.seq++
	if p := c.openPeriod(id); p != nil {
		p.missRecorded = true
	}
	if c.next != nil {
		c.next.OnDeadlineMiss(id, deadline, undelivered)
	}
}

func (c *Checker) OnSwitch(kind sim.SwitchKind, cost ticks.Ticks) {
	c.seq++
	if c.next != nil {
		c.next.OnSwitch(kind, cost)
	}
}

func (c *Checker) OnGrantApplied(id task.ID, g rm.Grant) {
	c.seq++
	c.checkCommitted(c.now())
	if c.next != nil {
		c.next.OnGrantApplied(id, g)
	}
}

// OnBlock voids the open period: §4.2 suspends guarantees from the
// block until the first full period after waking, and the scheduler
// resumes OnPeriodStart emission only then.
func (c *Checker) OnBlock(id task.ID, at ticks.Ticks) {
	c.seq++
	if p := c.openPeriod(id); p != nil {
		p.voided = true
	}
	if c.next != nil {
		c.next.OnBlock(id, at)
	}
}

// --- the checks ---

// closePeriod audits one finished period. A period is satisfied when
// the grant was delivered, or the miss was recorded, or guarantees
// were void (blocked), or the body declared its work complete (it
// voluntarily declined the rest of its grant). Anything else is a
// silent miss: CPU the task was guaranteed, did not get, and no record
// of the failure anywhere.
func (c *Checker) closePeriod(id task.ID, p *period, at ticks.Ticks) {
	c.periodsClosed++
	if p.voided || p.missRecorded || p.wentOvertime || p.delivered >= p.cpu {
		return
	}
	if c.s != nil {
		if _, completed, ok := c.s.PrevPeriod(id); ok && completed {
			return
		}
	}
	c.reportSilentMiss(id, p, at)
}

// checkCommitted asserts the committed grant fractions fit the
// schedulable CPU. The Manager's own arithmetic keeps the sum at or
// under its (possibly pressure-degraded) capacity; the Checker
// re-derives the sum independently and compares against the full
// schedulable fraction, which upper-bounds every legal capacity.
//
// While the grant generation stands still there is nothing to do: the
// committed set is the one last summed, Available is fixed when the
// Manager is built, and the verdict on that pair was given already
// (reportOvercommit reports a pair once).
func (c *Checker) checkCommitted(at ticks.Ticks) {
	if c.m == nil {
		return
	}
	gen := c.m.GrantGeneration()
	if c.sumValid && gen == c.sumGen {
		return
	}
	// The set is in ascending ID order, so intermediate overflow
	// behaviour cannot vary across runs. The terms go in unreduced: Add
	// reduces each sum, so the total is the same canonical fraction.
	sum := ticks.FracZero
	for _, g := range c.m.Committed().All() {
		sum = sum.Add(ticks.Frac{Num: int64(g.Entry.CPU), Den: int64(g.Entry.Period)})
	}
	c.sum, c.sumGen, c.sumValid = sum, gen, true
	if avail := c.m.Available(); !c.sum.LessOrEqual(avail) {
		c.reportOvercommit(at, avail)
	}
}

// checkStructure runs the Scheduler's structural audit and records
// each fresh finding once (the same broken bookkeeping would otherwise
// flood the log every period).
func (c *Checker) checkStructure(at ticks.Ticks) {
	if c.s == nil {
		return
	}
	c.auditGen, c.sinceAudit = c.s.StructureGeneration(), 0
	for _, f := range c.s.Audit().Findings {
		if c.seen[f] {
			continue
		}
		c.seen[f] = true
		c.report("structural", task.NoID, at, f)
	}
}

// Finish audits what a run's end leaves behind: a final structural
// audit, plus a check that no still-scheduled task sits on a period
// whose deadline passed without the scheduler ever rolling it (a stuck
// period — the rollover machinery itself failed, so neither a miss nor
// a new period was ever recorded). Call it after the run completes;
// the sweep harness does.
func (c *Checker) Finish() {
	now := c.now()
	c.checkStructure(now)
	c.checkCommitted(now)
	if c.s == nil {
		return
	}
	// The open-period table is indexed by ID, so this walk visits the
	// scheduled tasks in ascending ID order; an ID the Scheduler no
	// longer holds is skipped.
	for i := range c.open {
		p, id := &c.open[i], task.ID(i)
		if !p.present {
			continue
		}
		if _, _, held := c.s.PrevPeriod(id); !held {
			continue
		}
		// Lazy boundary processing (§6.1) legitimately leaves a deadline
		// up to about one period behind the clock at the horizon; a
		// rollover more than a full period overdue means the machinery
		// failed, not that it simply had not woken yet.
		if p.voided || now <= p.deadline+(p.deadline-p.start) {
			continue
		}
		c.reportStuckPeriod(id, p, now)
	}
}

func (c *Checker) now() ticks.Ticks {
	if c.k == nil {
		return 0
	}
	return c.k.Now()
}
