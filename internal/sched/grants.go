package sched

import (
	"cmp"
	"fmt"
	"slices"

	"repro/internal/rm"
	"repro/internal/sim"
	"repro/internal/task"
	"repro/internal/ticks"
)

// The Scheduler implements rm.Hooks so the Resource Manager can
// signal grant changes (§4.2): decreases and removals are signalled
// immediately and take effect at the affected task's next period.
// Increases are not signalled: the Scheduler asks the Manager
// (HasPending, CollectGrants) whenever TimeRemaining drains.
var _ rm.Hooks = (*Scheduler)(nil)

// GrantDecreased implements rm.Hooks: the decrease occurs in the next
// period for the affected task.
func (s *Scheduler) GrantDecreased(id task.ID, g rm.Grant) {
	t := s.find(id)
	if t == nil {
		return // not yet picked up; the eventual pickup has the new grant
	}
	t.nextGrant, t.hasNext = g, true
}

// GrantRemoved implements rm.Hooks: the task exited, was terminated,
// or went quiescent. It stops being scheduled immediately.
func (s *Scheduler) GrantRemoved(id task.ID) {
	if t := s.find(id); t != nil {
		s.dropTask(t)
	}
}

func (s *Scheduler) dropTask(t *tcb) {
	s.structGen++
	t.dropped = true
	s.dequeue(t)
	s.setOvertime(t, false)
	s.k.Cancel(t.wakeEvent)
	t.wakeEvent = sim.EventRef{}
	if t.ssCurrent != nil {
		// An active §5.1 grant assignment dies with the grant; the
		// sporadic task returns to the server's queue untouched.
		t.ssCurrent = nil
		t.ssAssignLeft = 0
	}
	if s.running == t {
		s.running = nil
	}
	if i, ok := s.index(t.id); ok && s.byID[i] == t {
		s.byID = slices.Delete(s.byID, i, i+1)
		t.nextSpare, s.spare = s.spare, t
	}
}

// index is id's position in the task table, and whether it is there.
func (s *Scheduler) index(id task.ID) (int, bool) {
	return slices.BinarySearchFunc(s.byID, id, func(t *tcb, id task.ID) int { return cmp.Compare(t.id, id) })
}

// find returns id's tcb, or nil when the Scheduler does not hold id.
func (s *Scheduler) find(id task.ID) *tcb {
	if i, ok := s.index(id); ok {
		return s.byID[i]
	}
	return nil
}

// collectGrants is the §4.2 unallocated-time callback: fetch the
// grant set from the Resource Manager and reconcile. New tasks start
// their first period immediately — in time that would otherwise have
// been idle or overtime, so admission cannot affect an admitted task.
// Increases for existing tasks apply at their next period start.
func (s *Scheduler) collectGrants() {
	gs := s.rmg.CollectGrants()
	now := s.k.Now()
	s.tel.grantsCollected.Inc()
	// The set is in ascending ID order, which is the order startTask's
	// trace events must appear in.
	for _, g := range gs.All() {
		t := s.find(g.Task)
		if t == nil {
			s.startTask(g.Task, g, now)
			continue
		}
		// A grant equal to the running one clears any stale change.
		t.nextGrant, t.hasNext = g, g != t.grant
	}
	// Tasks the Scheduler holds but the set omits were removed or
	// quiesced; the immediate GrantRemoved signal already dropped
	// them, so nothing to reconcile here.
}

// startTask builds a tcb for a newly granted task and begins its
// first period at now. §5.5: "The stack is cleared before the call
// ... This is how the initial grant for an admitted task is always
// delivered" — the first dispatch is a fresh callback.
func (s *Scheduler) startTask(id task.ID, g rm.Grant, now ticks.Ticks) {
	desc, err := s.rmg.TaskByID(id)
	if err != nil {
		// Granted but unknown to the Manager: a wiring bug.
		panic(fmt.Sprintf("sched: grant for unknown task %d: %v", id, err))
	}
	t := s.spareTCB()
	*t = tcb{
		id:         id,
		name:       desc.Name,
		body:       desc.Body,
		sem:        desc.Semantics,
		controlled: desc.ControlledPreemption,
		grant:      g,
		newPeriod:  true,
	}
	if f, ok := desc.Body.(task.Filter); ok {
		t.filter = f
	}
	if always, ok := s.pendingSS[id]; ok {
		t.isSS = true
		t.ssAlwaysOvertime = always
		delete(s.pendingSS, id)
	}
	i, _ := s.index(id)
	s.byID = slices.Insert(s.byID, i, t)
	s.structGen++
	s.beginPeriod(t, now)
	s.obs.OnGrantApplied(id, g)
}

// spareTCB returns the storage for a starting task's tcb: a dropped
// task's, every field of which startTask sets anew, or a new one.
// startTask runs only from collectGrants, in time the Scheduler would
// otherwise leave unallocated, so no dispatch in flight still holds the
// dropped tcb: resolve and maybeGrace have read its dropped flag by the
// time the loop picks up grants again.
func (s *Scheduler) spareTCB() *tcb {
	t := s.spare
	if t == nil {
		return new(tcb)
	}
	s.spare = t.nextSpare
	return t
}

// beginPeriod starts a fresh period for t at start: applies any
// pending grant change, resets the per-period accounting, and places
// the task on TimeRemaining.
func (s *Scheduler) beginPeriod(t *tcb, start ticks.Ticks) {
	prevLevel := t.grant.Level
	prevFFU := t.grant.Entry.NeedsFFU
	if t.hasNext {
		t.grant, t.hasNext = t.nextGrant, false
	}
	t.prevLevel = prevLevel
	t.ffuChanged = t.grant.Entry.NeedsFFU != prevFFU
	t.periodStart = start
	t.deadline = start + t.grant.Entry.Period
	if t.deadline < s.nextRoll {
		s.nextRoll = t.deadline
	}
	t.remaining = t.grant.Entry.CPU
	t.prevUsed = t.usedThisPeriod
	t.ctxFlags &= task.FlagException // an owed exception outlives the boundary
	if t.grant.Level != prevLevel {
		t.ctxFlags |= task.FlagGrantChanged
	}
	if t.completed {
		t.ctxFlags |= task.FlagPrevCompleted
	}
	t.usedThisPeriod = 0
	t.completed = false
	t.newPeriod = true
	t.stats.Periods++
	t.stats.GrantedTicks += t.grant.Entry.CPU
	s.setOvertime(t, false)
	s.enqueue(t, qTimeRemaining)
	s.obs.OnPeriodStart(t.id, start, t.deadline, t.grant.Level, t.grant.Entry.CPU)
	s.tel.rollovers.Inc()
	// The period span is the causal parent of every dispatch span the
	// period produces. Its window [start, deadline) is known up front,
	// so it is recorded complete — no open-span bookkeeping to close at
	// task drop or run end. Without a span log it stays zero.
	if s.tel.spans != nil {
		t.periodSpan = s.tel.spans.Complete(start, t.deadline, "period", t.name, int64(t.id), 0, "")
	}
}

// rollPeriods processes every period boundary at or before now:
// deadline audit, §5.4 inserted idle cycles, blocked-task
// bookkeeping, and new-period setup. Boundaries are processed lazily
// — the Scheduler only takes "exactly those context switch interrupts
// required" (§6.1), so a boundary that did not force a switch is
// handled at the next natural wakeup. A pass before the earliest
// deadline has nothing to process and does not walk the tasks.
func (s *Scheduler) rollPeriods(now ticks.Ticks) {
	if now < s.nextRoll {
		return
	}
	s.nextRoll = maxTicks
	for _, t := range s.tasksByID() {
		for t.deadline <= now {
			if t.blocked {
				// Guarantees are void while blocked; slide the
				// period window forward without granting.
				t.stats.BlockedPeriods++
				s.advanceWindow(t)
				continue
			}
			if t.wokenMidPeriod {
				if t.deadline <= t.wokeAt {
					// Boundaries are processed lazily; this one
					// elapsed while the task was still blocked.
					t.stats.BlockedPeriods++
					s.advanceWindow(t)
					continue
				}
				// First full period after waking: guarantees resume.
				t.wokenMidPeriod = false
				start := t.deadline + t.takeInsertedIdle()
				s.beginPeriod(t, start)
				continue
			}
			// Deadline audit: a task still holding granted CPU on
			// TimeRemaining at its deadline missed it.
			if t.queue == qTimeRemaining && t.remaining > 0 {
				t.stats.Misses++
				s.obs.OnDeadlineMiss(t.id, t.deadline, t.remaining)
				s.tel.misses.Inc()
			}
			start := t.deadline + t.takeInsertedIdle()
			s.beginPeriod(t, start)
		}
		if t.deadline < s.nextRoll {
			s.nextRoll = t.deadline
		}
	}
}

// advanceWindow slides a blocked task's period window one period
// forward without granting resources.
func (s *Scheduler) advanceWindow(t *tcb) {
	start := t.deadline + t.takeInsertedIdle()
	period := t.grant.Entry.Period
	if t.hasNext {
		// Window arithmetic uses the upcoming grant's period once
		// the change is due; applying it here keeps deadlines
		// consistent with what beginPeriod will install.
		period = t.nextGrant.Entry.Period
	}
	t.periodStart = start
	t.deadline = start + period
}

func (t *tcb) takeInsertedIdle() ticks.Ticks {
	d := t.insertIdle
	t.insertIdle = 0
	return d
}

// tasksByID returns tcbs in ascending task ID order. The slice is the
// live byID index (maintained by startTask/dropTask), not a snapshot:
// callers iterate it on every scheduler loop pass, and rebuilding plus
// sorting a copy per call was the simulator's single largest
// allocation source. Callers must not hold it across task add/drop.
func (s *Scheduler) tasksByID() []*tcb { return s.byID }

// InsertIdleCycles postpones the start of id's next period by n ticks
// (§5.4). Postponement cannot jeopardise other tasks' guarantees;
// pulling a period in could, so negative n is rejected.
func (s *Scheduler) InsertIdleCycles(id task.ID, n ticks.Ticks) error {
	if n < 0 {
		return fmt.Errorf("sched: InsertIdleCycles(%d): cannot pull in a period start", n)
	}
	t := s.find(id)
	if t == nil {
		return fmt.Errorf("sched: InsertIdleCycles: unknown task %d", id)
	}
	t.insertIdle += n
	return nil
}

// Unblock wakes a task that blocked with no wake time (OpBlock with
// BlockFor == 0). Guarantees resume in the first full period.
func (s *Scheduler) Unblock(id task.ID) error {
	t := s.find(id)
	if t == nil {
		return fmt.Errorf("sched: Unblock: unknown task %d", id)
	}
	if !t.blocked {
		return nil
	}
	s.wake(t)
	return nil
}

func (s *Scheduler) wake(t *tcb) {
	s.structGen++
	t.blocked = false
	t.wokenMidPeriod = true
	t.wokeAt = s.k.Now()
	s.k.Cancel(t.wakeEvent)
	t.wakeEvent = sim.EventRef{}
}

// Deadline reports id's current period deadline, for tests and the
// latency experiments.
func (s *Scheduler) Deadline(id task.ID) (ticks.Ticks, bool) {
	t := s.find(id)
	if t == nil {
		return 0, false
	}
	return t.deadline, true
}
