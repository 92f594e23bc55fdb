//rd:hotpath
package sched

import (
	"repro/internal/sim"
	"repro/internal/task"
	"repro/internal/ticks"
)

// maxTicks is a sentinel "never" time.
const maxTicks = ticks.Ticks(1 << 62)

// switchReason says why a dispatch slice ended where it did.
type switchReason int

const (
	reasonGrantEnd switchReason = iota // the grant for this period ran out
	reasonPreempt                      // another thread's new period preempts (EDF)
	reasonEvent                        // a kernel event interrupts bookkeeping only
	reasonLimit                        // the simulation horizon
)

// RunUntil drives the schedule until virtual time reaches limit.
// It may be called repeatedly to extend a run.
func (s *Scheduler) RunUntil(limit ticks.Ticks) {
	for s.k.Now() < limit {
		now := s.k.Now()
		s.k.RunUntil(now) // fire events due exactly now
		if _, stalled := s.k.Stalled(); stalled {
			// The kernel tripped its same-tick livelock guard: it has
			// stopped dispatching events, so the schedule cannot make
			// progress. Return with the clock at the stall instant so
			// the caller can report it (sim.Kernel.Stalled).
			return
		}
		// Event handlers (interrupts, §5.2) may occupy the CPU and
		// advance the clock; re-read it so period rollovers and
		// preemption arithmetic see the true time. A handler may even
		// carry the clock to or past the limit (a long interrupt slab
		// near the horizon): there is no slice left to dispatch, and a
		// later RunUntil call picks up from the overshot instant.
		now = s.k.Now()
		if now >= limit {
			return
		}
		s.rollPeriods(now)
		s.tel.qRemaining.Set(int64(len(s.timeRemaining)))
		s.tel.qExpired.Set(int64(len(s.timeExpired)))
		s.tel.qOvertime.Set(int64(len(s.overtimeQ)))
		cur, kind := s.choose()
		if cur == nil {
			s.idleUntilNextInterest(limit)
			continue
		}
		if s.running != cur {
			// A real context switch: charge its cost, then
			// re-evaluate — periods may have started during the
			// switch, and EDF must honour them. Leaving the idle
			// loop (running == nil) is always timer- or
			// interrupt-driven, hence asynchronous (§6.1).
			if s.switchCredit {
				// The previously charged switch's target was removed
				// before it ever ran; the CPU already paid for one
				// transition, so the re-target is free.
				s.switchCredit = false
				s.running = cur
				continue
			}
			exitVol := s.running != nil && s.running.lastExitVoluntary
			k := sim.Involuntary
			if exitVol {
				k = sim.Voluntary
			}
			cost := s.k.ChargeSwitch(k)
			s.obs.OnSwitch(k, cost)
			s.running = cur
			if cur.dropped {
				// An event inside the charged switch span removed the
				// grant of the task being switched to. Credit the paid
				// switch so the immediate re-target is free, and leave
				// the CPU unowned — the dead tcb must not be dispatched.
				s.switchCredit = true
				s.running = nil
			}
			continue
		}
		s.dispatchSlice(cur, kind, limit)
	}
}

// choose implements the §4.2 selection rule: first thread off
// TimeRemaining; else, if there are new grants, collect them (new
// grants begin only in unallocated time); else the first
// OvertimeRequested thread; else the Idle thread (represented as nil).
func (s *Scheduler) choose() (*tcb, DispatchKind) {
	if len(s.timeRemaining) > 0 {
		return s.timeRemaining[0], DispatchGranted
	}
	if s.rmg.HasPending() {
		s.collectGrants()
		if len(s.timeRemaining) > 0 {
			return s.timeRemaining[0], DispatchGranted
		}
	}
	if len(s.overtimeQ) > 0 {
		return s.overtimeQ[0], DispatchOvertime
	}
	return nil, DispatchIdle
}

// idleUntilNextInterest advances the clock to the next scheduling
// event (a period boundary, a kernel event, or the horizon),
// accounting the time to the Idle thread.
func (s *Scheduler) idleUntilNextInterest(limit ticks.Ticks) {
	now := s.k.Now()
	next := limit
	for _, t := range s.byID {
		if t.blocked {
			continue
		}
		if b := t.deadline + t.insertIdle; b < next {
			next = b
		}
	}
	if at, ok := s.k.NextEventTime(); ok && at < next {
		next = at
	}
	if next <= now {
		// Nothing strictly ahead of now (can only be limit == now);
		// the loop condition will end the run.
		return
	}
	d := next - now
	s.k.Idle(d)
	s.idleTicks += d
	s.obs.OnDispatch(task.NoID, "idle", now, next, DispatchIdle, 0)
	s.tel.dispatchIdle.Inc()
	// The CPU went idle: entry to the idle loop is free (no state to
	// save beyond what the outgoing thread's exit already implied),
	// and the next real dispatch from idle is charged as a voluntary
	// switch since idle has no context worth saving.
	s.running = nil
	// A switch credit does not survive going idle: the idle stretch
	// separates the charged switch from any later dispatch, which is a
	// fresh transition and pays its own cost.
	s.switchCredit = false
}

// preemptTime computes the §4.2 timer rule for a granted dispatch:
// the beginning of a new period for another thread whose next-period
// end precedes the period end of the thread about to run.
func (s *Scheduler) preemptTime(cur *tcb) ticks.Ticks {
	best := maxTicks
	for _, t := range s.byID {
		if t == cur || t.blocked {
			continue
		}
		start := t.deadline + t.insertIdle
		period := t.grant.Entry.Period
		if t.hasNext {
			period = t.nextGrant.Entry.Period
		}
		if start+period < cur.deadline && start < best {
			best = start
		}
	}
	return best
}

// preemptTimeAny is the preemption rule for overtime execution: any
// thread's new period — including the running thread's own — reclaims
// the CPU, because granted time always outranks overtime.
func (s *Scheduler) preemptTimeAny(cur *tcb) ticks.Ticks {
	best := maxTicks
	for _, t := range s.byID {
		if t.blocked {
			continue
		}
		if start := t.deadline + t.insertIdle; start < best {
			best = start
		}
	}
	return best
}

// dispatchSlice runs cur for one contiguous slice of CPU, ending at
// the earlier of its grant end, an EDF preemption point, a kernel
// event, or the horizon, then resolves what the task did.
func (s *Scheduler) dispatchSlice(cur *tcb, kind DispatchKind, limit ticks.Ticks) {
	now := s.k.Now()

	var switchAt ticks.Ticks
	var reason switchReason
	switch kind {
	case DispatchGranted:
		if cur.remaining <= 0 {
			// Nothing left to deliver this period (the grace path can
			// drain a grant): the task belongs on TimeExpired.
			s.enqueue(cur, qTimeExpired)
			return
		}
		grantEnd := now + cur.remaining
		preemptAt := s.preemptTime(cur)
		switchAt, reason = grantEnd, reasonGrantEnd
		if preemptAt < grantEnd {
			// Small-overlap override (§4.2): when the grant would
			// run only a sliver past the preemption point, finish it
			// rather than pay two context switches for the sliver.
			if grantEnd-preemptAt <= s.override {
				switchAt, reason = grantEnd, reasonGrantEnd
			} else {
				switchAt, reason = preemptAt, reasonPreempt
			}
		}
		if cur.deadline < switchAt {
			// The grant cannot complete inside its own period (a
			// miss, possible only for misbehaving configurations or
			// baseline schedulers): stop at the deadline so the
			// rollover and audit happen on time.
			switchAt, reason = cur.deadline, reasonPreempt
		}
	case DispatchOvertime:
		switchAt, reason = s.preemptTimeAny(cur), reasonPreempt
	default:
		panic("sched: dispatchSlice with kind " + kind.String())
	}
	if at, ok := s.k.NextEventTime(); ok && at < switchAt {
		switchAt, reason = at, reasonEvent
	}
	if limit < switchAt {
		switchAt, reason = limit, reasonLimit
	}
	span := switchAt - now
	if span <= 0 {
		// rollPeriods guarantees boundaries are strictly ahead and
		// due events have fired, so a zero span means a bookkeeping
		// bug that would otherwise hang the run loop.
		panic("sched: dispatch slice of zero length")
	}

	// §5.6 second-order cost: a task resuming after an involuntary
	// preemption comes back to a cold cache; the refill consumes the
	// head of its slice without application progress. Voluntary
	// yields at safe points resume warm.
	if cur.coldCache {
		cur.coldCache = false
		if refill := s.k.CacheRefill(); refill > 0 {
			warm := refill
			if warm > span {
				warm = span
			}
			s.charge(cur, kind, now, warm)
			now += warm
			span -= warm
			if span == 0 {
				s.resolve(cur, kind, reason, true, task.RunResult{Used: 0, Op: task.OpRanOut})
				return
			}
		}
	}

	res, end := s.runBody(cur, now, span)
	if end < span {
		// A timed sporadic block armed its wake-up inside the slice, and
		// the slice ends at that event instead.
		span, reason = end, reasonEvent
	}
	res = clamped(res, span)
	// Defend against misbehaving bodies: an unknown op is treated as
	// running out (the conservative reading), and a body that stopped
	// early did so voluntarily, whatever it says.
	switch res.Op {
	case task.OpYield, task.OpBlock, task.OpOvertime, task.OpExit, task.OpRanOut:
	default:
		res.Op = task.OpRanOut
	}
	if res.Used < span && res.Op == task.OpRanOut {
		res.Op = task.OpYield
	}

	s.charge(cur, kind, now, res.Used)
	if res.Used == span {
		s.telSliceEnd(reason)
	}

	timerForced := res.Used == span && (reason == reasonGrantEnd || reason == reasonPreempt)
	s.resolve(cur, kind, reason, timerForced, res)
}

// deliverAsCallback decides the §5.5 semantics for the first dispatch
// of a period: callback-semantics tasks always get a fresh upcall;
// return-semantics tasks continue where they left off, unless the
// grant changed — then the filter callback (if registered) chooses,
// FFU acquisition or loss forces a callback, and otherwise the task
// resumes with the new grant.
func (s *Scheduler) deliverAsCallback(cur *tcb) bool {
	if !cur.everRan {
		cur.everRan = true
		return true // the initial grant is always a callback
	}
	if cur.sem == task.CallbackSemantics {
		return true
	}
	if cur.ctxFlags&task.FlagGrantChanged == 0 {
		return false
	}
	if cur.filter != nil {
		return cur.filter.FilterGrantChange(cur.prevLevel, cur.grant.Level) == task.CallbackSemantics
	}
	return cur.ffuChanged
}

// runBody hands cur the CPU for span ticks from now: to the Sporadic
// Server machinery for the server's tcb, to an active §5.1 grant
// assignment, or to the task body with the §5.5 calling arguments. The
// flags and the period callback are settled first; the context itself
// is a literal in the call, so it travels in registers (RunContext).
// It returns the span the result answers to: span, or less where a
// sporadic task's timed block cut the slice short (runAssignment).
func (s *Scheduler) runBody(cur *tcb, now, span ticks.Ticks) (task.RunResult, ticks.Ticks) {
	flags := cur.ctxFlags
	cur.ctxFlags &^= task.FlagException
	// While a §5.1 grant assignment is active the period callback is
	// deferred — runAssigned delivers it when the periodic task's own
	// body resumes.
	newPeriod := false
	if cur.newPeriod && (cur.ssCurrent == nil || cur.isSS) {
		cur.newPeriod = false
		newPeriod = s.deliverAsCallback(cur)
	}
	if cur.isSS {
		return s.runSporadicServer(cur, now, span)
	}
	if cur.ssCurrent != nil {
		return s.runAssigned(cur, now, span, flags)
	}
	return cur.body.Run(task.RunContext{
		Now:            now,
		Span:           span,
		PeriodStart:    cur.periodStart,
		Level:          cur.grant.Level,
		NewPeriod:      newPeriod,
		PrevUsed:       cur.prevUsed,
		UsedThisPeriod: cur.usedThisPeriod,
		Flags:          flags,
	}), span
}

// clamped holds what a body answered to the span it was offered: a
// misbehaving body can neither run backwards nor use time it was not
// given. Every body's result passes through here.
func clamped(res task.RunResult, span ticks.Ticks) task.RunResult {
	if res.Used < 0 {
		res.Used = 0
	}
	if res.Used > span {
		res.Used = span
	}
	return res
}

// charge is the one step that spends CPU on a task: cur occupies the
// CPU for used ticks starting at at, the kernel accounts them busy, the
// task's buckets are charged, and observers and telemetry see the
// stretch — the per-kind counter, the slice histogram, and a decision
// span whose parent is the period rollover that made the task runnable.
// Grace-period time is charged against the grant like granted time
// (§5.6).
func (s *Scheduler) charge(cur *tcb, kind DispatchKind, at, used ticks.Ticks) {
	s.k.Busy(used)
	cur.usedThisPeriod += used
	if kind == DispatchOvertime {
		cur.stats.OvertimeTicks += used
	} else {
		granted := min(used, cur.remaining) // a grace overrun clamps at zero
		cur.remaining -= granted
		cur.stats.UsedTicks += granted
	}
	if used == 0 {
		return
	}
	s.obs.OnDispatch(cur.id, cur.name, at, at+used, kind, cur.grant.Level)
	switch kind {
	case DispatchGranted:
		s.tel.dispatchGranted.Inc()
	case DispatchOvertime:
		s.tel.dispatchOvertime.Inc()
	case DispatchGrace:
		s.tel.dispatchGrace.Inc()
	}
	s.tel.sliceTicks.Observe(int64(used))
	// Complete is a no-op on a nil log, but building its arguments is
	// not; a run without a span log skips it.
	if s.tel.spans != nil {
		s.tel.spans.Complete(at, at+used, "dispatch", cur.name, int64(cur.id), cur.periodSpan, kind.String())
	}
}

// resolve applies the outcome of a dispatch slice: queue movement,
// context-switch class bookkeeping, the §5.6 grace-period dance, and
// task exit. timerForced marks slices ended by the timer interrupt
// (the body consumed the whole span up to a grant end or preemption
// point) — those exits are involuntary.
func (s *Scheduler) resolve(cur *tcb, kind DispatchKind, reason switchReason, timerForced bool, res task.RunResult) {
	if cur.dropped {
		// The grant was removed mid-dispatch (the body revoked it, or
		// asked the RM to). dropTask already took the tcb off every
		// queue; any queue movement here would resurrect it.
		return
	}
	switch res.Op {
	case task.OpBlock, task.OpExit:
		s.leave(cur, res)

	case task.OpYield:
		cur.completed = cur.completed || res.Completed
		cur.lastExitVoluntary = true
		if kind == DispatchGranted {
			s.enqueue(cur, qTimeExpired)
		}
		s.setOvertime(cur, false)

	case task.OpOvertime:
		cur.completed = cur.completed || res.Completed
		if kind == DispatchGranted {
			s.enqueue(cur, qTimeExpired)
		}
		if kind == DispatchOvertime && res.Used == 0 {
			// An overtime thread that consumes nothing must not stay
			// on the queue — it would livelock the run loop. It is
			// treated as yielding until its next period.
			s.setOvertime(cur, false)
			cur.lastExitVoluntary = true
			return
		}
		s.setOvertime(cur, true)
		// Ran to the timer: involuntary; stopped early: voluntary.
		cur.lastExitVoluntary = !timerForced
		if timerForced {
			s.maybeGrace(cur, reason)
		}

	case task.OpRanOut:
		switch reason {
		case reasonEvent, reasonLimit:
			// Bookkeeping interruption only: the thread logically
			// keeps the CPU; no context switch.
			return
		case reasonGrantEnd:
			cur.lastExitVoluntary = false
			if kind == DispatchGranted {
				s.enqueue(cur, qTimeExpired)
			}
			s.maybeGrace(cur, reason)
		case reasonPreempt:
			// EDF preemption mid-grant: the task keeps its remaining
			// allocation and stays on TimeRemaining (granted) or the
			// overtime queue (overtime).
			cur.lastExitVoluntary = false
			s.maybeGrace(cur, reason)
		}
	}
	// Involuntary exits lose the cache (§5.6); voluntary yields at
	// safe points resume warm. maybeGrace may have upgraded the exit
	// to voluntary, so this reads the final classification.
	cur.coldCache = !cur.lastExitVoluntary
}

// leave takes cur off the CPU because its body blocked or exited — in a
// regular slice or inside a grace period alike, a voluntary exit.
func (s *Scheduler) leave(cur *tcb, res task.RunResult) {
	cur.lastExitVoluntary = true
	if res.Op == task.OpBlock {
		s.structGen++
		cur.blocked = true
		s.dequeue(cur)
		s.setOvertime(cur, false)
		s.obs.OnBlock(cur.id, s.k.Now())
		if res.BlockFor > 0 {
			cur.wakeEvent = s.k.AfterCall(res.BlockFor, s, opWakeTask, int32(cur.id), 0)
		}
		return
	}
	s.dropTask(cur)
	// A task that terminates naturally leaves the Resource Manager too,
	// releasing its admission reservation. The GrantRemoved signal this
	// triggers finds the tcb already dropped and is a no-op. (The error
	// is "unknown task": whoever removed it first has done the job.)
	_ = s.rmg.Remove(cur.id)
}

// maybeGrace performs the §5.6 controlled-preemption dance for a task
// that is about to be involuntarily preempted: notify it, give it the
// grace period to yield voluntarily, and send an exception callback
// next time if it overruns.
func (s *Scheduler) maybeGrace(cur *tcb, reason switchReason) {
	if !cur.controlled || cur.isSS {
		return
	}
	now := s.k.Now()
	graceSpan := s.grace
	if at, ok := s.k.NextEventTime(); ok && at-now < graceSpan {
		graceSpan = at - now
	}
	// With no room for a grace period the task has failed to yield
	// before it was offered anything.
	res := task.RunResult{Op: task.OpRanOut}
	if graceSpan > 0 {
		res = clamped(cur.body.Run(task.RunContext{
			Now:            now,
			Span:           graceSpan,
			PeriodStart:    cur.periodStart,
			Level:          cur.grant.Level,
			UsedThisPeriod: cur.usedThisPeriod,
			Flags:          task.FlagInGracePeriod,
		}), graceSpan)
		if cur.dropped {
			// The grace callback revoked the task's own grant: the tcb is
			// off every queue; charging or re-enqueueing would resurrect it.
			return
		}
		// "The task will be charged for the resources it uses in the
		// grace period" — against its grant, clamped at zero.
		s.charge(cur, DispatchGrace, now, res.Used)
	}
	switch res.Op {
	case task.OpBlock, task.OpExit:
		s.leave(cur, res)
	case task.OpYield:
		cur.completed = cur.completed || res.Completed
		cur.lastExitVoluntary = true
		// The grace usage may have consumed the rest of the grant
		// (it is charged against the task, §5.6); a task with no
		// remaining allocation must leave TimeRemaining.
		if (reason == reasonGrantEnd || cur.remaining == 0) && cur.queue != qTimeExpired {
			s.enqueue(cur, qTimeExpired)
		}
	default:
		// Failed to yield inside the grace period: involuntary
		// preemption plus an exception callback on next dispatch.
		cur.lastExitVoluntary = false
		cur.ctxFlags |= task.FlagException
		cur.stats.Exceptions++
		s.tel.exceptions.Inc()
	}
}
