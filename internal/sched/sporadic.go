//rd:hotpath
package sched

import (
	"fmt"

	"repro/internal/sim"
	"repro/internal/task"
	"repro/internal/ticks"
)

// Sporadic tasks (§5.1) are neither periodic nor real-time. They are
// managed by the Sporadic Server — itself an admitted periodic task —
// which keeps a round-robin queue of them and assigns its own grant
// to the front task for a fixed slice (10 ms in the paper). When the
// Scheduler selects the server, the assigned sporadic thread runs
// instead; resource bookkeeping stays with the server. An assignment
// larger than one period's grant simply extends over several periods.
// Sporadic tasks have no scheduling guarantees: their performance is
// a function of the server's grant and the queue length.

// SporadicID identifies a sporadic task within a Scheduler.
type SporadicID int32

// sporadicTask is the server's record of one sporadic thread.
type sporadicTask struct {
	id      SporadicID
	blocked bool
	name    string
	body    task.Body
	wake    sim.EventRef
	stats   SporadicStats
	// serverName and assignedName are what an Observer sees a dispatch
	// of this task as — under the Sporadic Server and under a §5.1
	// AssignGrant assignment — built once, in AddSporadic, so that a
	// dispatch allocates nothing.
	serverName, assignedName string
	// auditEpoch is the latest Audit pass that found this task on the
	// server's queue: a grant assignment to a task without the current
	// stamp points at a removed task.
	auditEpoch uint64
}

// SporadicStats is per-sporadic-task accounting.
type SporadicStats struct {
	UsedTicks  ticks.Ticks
	Dispatches int64
}

// AttachSporadicServer marks the admitted task id as the Sporadic
// Server. alwaysOvertime makes the server indicate it has work at the
// end of every period, as in the paper's Figure 5 run ("it is the
// only thread that indicates it has work to do at the end of each
// period") — it then soaks up otherwise-unallocated time.
//
// The call may precede the Scheduler's first grant pickup; the mark
// is applied when the task starts.
func (s *Scheduler) AttachSporadicServer(id task.ID, alwaysOvertime bool) error {
	if t := s.find(id); t != nil {
		t.isSS = true
		t.ssAlwaysOvertime = alwaysOvertime
		return nil
	}
	if _, err := s.rmg.TaskByID(id); err != nil {
		return fmt.Errorf("sched: AttachSporadicServer: unknown task %d", id)
	}
	if s.pendingSS == nil {
		s.pendingSS = make(map[task.ID]bool)
	}
	s.pendingSS[id] = alwaysOvertime
	return nil
}

// AddSporadic appends a sporadic task to the server's round-robin
// queue. It may be called before or after AttachSporadicServer.
func (s *Scheduler) AddSporadic(name string, body task.Body) SporadicID {
	s.nextSporadicID++
	sp := &sporadicTask{
		id: s.nextSporadicID, name: name, body: body,
		//rdlint:allow hotalloc cold path: once per sporadic task, at registration
		serverName: "sporadic:" + name, assignedName: "assigned:" + name,
	}
	s.sporadics = append(s.sporadics, sp)
	return sp.id
}

// RemoveSporadic drops a sporadic task from the queue.
func (s *Scheduler) RemoveSporadic(id SporadicID) {
	for i, sp := range s.sporadics {
		if sp.id == id {
			s.structGen++
			s.k.Cancel(sp.wake)
			s.sporadics = append(s.sporadics[:i], s.sporadics[i+1:]...)
			s.clearSSAssignment(sp)
			return
		}
	}
}

// SporadicWake unblocks a sporadic task that blocked indefinitely.
func (s *Scheduler) SporadicWake(id SporadicID) {
	for _, sp := range s.sporadics {
		if sp.id == id {
			sp.blocked = false
			s.k.Cancel(sp.wake)
			sp.wake = sim.EventRef{}
			return
		}
	}
}

// AssignGrant implements the general §5.1 interface: "We provide an
// interface whereby any periodic task can 'assign' its grant for a
// specific period of time to another (non-periodic) task." While the
// assignment is active, dispatches of the periodic task run the
// sporadic body instead, with resource bookkeeping still done in the
// periodic task's context; the assignment extends over multiple
// periods if amount exceeds one period's grant. When the amount is
// consumed or the sporadic task blocks or exits, the periodic task
// resumes (receiving any pending period callback at that point).
func (s *Scheduler) AssignGrant(id task.ID, sp SporadicID, amount ticks.Ticks) error {
	t := s.find(id)
	if t == nil {
		return fmt.Errorf("sched: AssignGrant: unknown task %d", id)
	}
	if t.isSS {
		return fmt.Errorf("sched: AssignGrant: task %d is the Sporadic Server", id)
	}
	if amount <= 0 {
		return fmt.Errorf("sched: AssignGrant: non-positive amount %v", amount)
	}
	for _, x := range s.sporadics {
		if x.id == sp {
			s.structGen++
			t.ssCurrent = x
			t.ssAssignLeft = amount
			return nil
		}
	}
	return fmt.Errorf("sched: AssignGrant: unknown sporadic task %d", sp)
}

// runAssignment is the one step that runs a sporadic body: cur's
// assigned task gets min(span, what is left of the assignment) at at,
// with resource bookkeeping staying in cur's context. The assignment
// ends when the task yields, blocks ("when the sporadic thread blocks,
// the Scheduler returns to the periodic task"), exits, or has used all
// of it; otherwise it carries over to cur's next dispatch, possibly in
// a later period. turnOver reports an assignment that ended with the
// task still ready to run — what the Sporadic Server rotates its queue
// on. A timed block arms the wake-up at the block instant, which can
// fall inside the slice: the caller then ends the slice there (clip).
func (s *Scheduler) runAssignment(cur *tcb, at, span ticks.Ticks) (used ticks.Ticks, turnOver bool) {
	sp := cur.ssCurrent
	give := min(span, cur.ssAssignLeft)
	res := clamped(sp.body.Run(task.RunContext{Now: at, Span: give}), give)
	cur.ssAssignLeft -= res.Used
	sp.stats.UsedTicks += res.Used
	sp.stats.Dispatches++
	if res.Used > 0 {
		name, detail := sp.assignedName, "assigned"
		if cur.isSS {
			name, detail = sp.serverName, "sporadic"
		}
		s.obs.OnDispatch(cur.id, name, at, at+res.Used, DispatchSporadic, cur.grant.Level)
		s.tel.dispatchSporadic.Inc()
		if s.tel.spans != nil {
			s.tel.spans.Complete(at, at+res.Used, "dispatch", sp.name, int64(cur.id), cur.periodSpan, detail)
		}
	}
	switch res.Op {
	case task.OpBlock:
		sp.blocked = true
		if res.BlockFor > 0 {
			sp.wake = s.k.AtCall(at+res.Used+res.BlockFor, s, opWakeSporadic, int32(sp.id), 0)
		}
	case task.OpExit:
		s.RemoveSporadic(sp.id)
	case task.OpYield:
		turnOver = true
	default: // ran out of the offered slice
		if cur.ssAssignLeft > 0 {
			return res.Used, false // the assignment carries over
		}
		turnOver = true
	}
	cur.ssCurrent = nil
	cur.ssAssignLeft = 0
	return res.Used, turnOver
}

// clip shortens the rest of a slice, span ticks from at, to end at the
// kernel's next event: the wake-up a timed sporadic block has just
// armed, which the kernel may not advance past.
func (s *Scheduler) clip(at, span ticks.Ticks) ticks.Ticks {
	if ev, ok := s.k.NextEventTime(); ok && ev < at+span {
		return ev - at
	}
	return span
}

// runAssigned executes a general grant assignment (§5.1) inside the
// periodic task cur's dispatch. It consumes up to the assignment
// remainder, then — if span is left — falls through to cur's own
// body, delivering any period callback that was deferred while the
// assignment was active. Like runBody it returns the span its result
// answers to.
func (s *Scheduler) runAssigned(cur *tcb, now, span ticks.Ticks, flags task.ContextFlags) (task.RunResult, ticks.Ticks) {
	sp := cur.ssCurrent
	used, _ := s.runAssignment(cur, now, span)
	if sp.blocked {
		span = used + s.clip(now+used, span-used)
	}
	if cur.ssCurrent != nil || used == span {
		// Assignment still active (or span exhausted): the periodic
		// task's own work waits.
		return task.RunResult{Used: used, Op: task.OpRanOut}, span
	}
	// Assignment over with time left: resume the periodic task's own
	// body, delivering the deferred period callback if one is due.
	newPeriod := false
	if cur.newPeriod {
		cur.newPeriod = false
		newPeriod = s.deliverAsCallback(cur)
	}
	res := clamped(cur.body.Run(task.RunContext{
		Now:            now + used,
		Span:           span - used,
		PeriodStart:    cur.periodStart,
		Level:          cur.grant.Level,
		NewPeriod:      newPeriod,
		PrevUsed:       cur.prevUsed,
		UsedThisPeriod: cur.usedThisPeriod + used,
		Flags:          flags,
	}), span-used)
	res.Used += used
	return res, span
}

// SporadicStatsOf reports accounting for a sporadic task.
func (s *Scheduler) SporadicStatsOf(id SporadicID) (SporadicStats, bool) {
	for _, sp := range s.sporadics {
		if sp.id == id {
			return sp.stats, true
		}
	}
	return SporadicStats{}, false
}

// clearSSAssignment cancels any active assignment to sp — both the
// Sporadic Server's own round-robin slice and a general §5.1
// AssignGrant assignment held by a non-server periodic task. Clearing
// the latter is what resumes the periodic task: with ssCurrent nil
// its next dispatch runs its own body again, receiving the period
// callback that was deferred while the assignment was active.
func (s *Scheduler) clearSSAssignment(sp *sporadicTask) {
	for _, t := range s.tasksByID() {
		if t.ssCurrent == sp {
			t.ssCurrent = nil
			t.ssAssignLeft = 0
		}
	}
}

// nextReadySporadic returns the first unblocked sporadic task.
func (s *Scheduler) nextReadySporadic() *sporadicTask {
	for _, sp := range s.sporadics {
		if !sp.blocked {
			return sp
		}
	}
	return nil
}

// rotateSporadic moves sp to the back of the round-robin queue.
func (s *Scheduler) rotateSporadic(sp *sporadicTask) {
	for i, x := range s.sporadics {
		if x == sp {
			s.sporadics = append(s.sporadics[:i], s.sporadics[i+1:]...)
			s.sporadics = append(s.sporadics, sp)
			return
		}
	}
}

// runSporadicServer executes the server's dispatch: assign the grant
// slice to queued sporadic tasks and run them inside the offered
// span. The result is shaped like a body result so the main loop's
// resolve logic applies unchanged; like runBody it returns the span
// the result answers to.
func (s *Scheduler) runSporadicServer(cur *tcb, at, span ticks.Ticks) (task.RunResult, ticks.Ticks) {
	spanLeft := span
	var used ticks.Ticks
	// zeroStreak guards against a live-lock: ready sporadic tasks
	// that consume nothing (e.g. polling an empty queue) must not
	// spin the server loop. After one fruitless round-robin cycle the
	// server treats the queue as idle for this dispatch.
	zeroStreak := 0
	for spanLeft > 0 {
		if zeroStreak > len(s.sporadics) {
			break
		}
		if cur.ssCurrent == nil {
			sp := s.nextReadySporadic()
			if sp == nil {
				break
			}
			cur.ssCurrent = sp
			cur.ssAssignLeft = s.ssSlice
			s.tel.sporadicSlices.Inc()
		}
		sp := cur.ssCurrent
		n, turnOver := s.runAssignment(cur, at+used, spanLeft)
		used += n
		spanLeft -= n
		if sp.blocked {
			spanLeft = s.clip(at+used, spanLeft)
		}
		if n == 0 {
			zeroStreak++
		} else {
			zeroStreak = 0
		}
		if turnOver {
			// A fresh slice will be assigned next time the server runs
			// (possibly next period — assignments span periods).
			s.rotateSporadic(sp)
		}
	}

	// More work queued (or an open assignment): ask for overtime so
	// unallocated time flows to sporadic tasks.
	hasWork := cur.ssCurrent != nil || s.nextReadySporadic() != nil
	end := used + spanLeft
	switch {
	case end < span && (spanLeft == 0 || cur.ssAlwaysOvertime):
		// Ran (or busy-polled) up to a wake-up armed inside the slice:
		// the slice ends at that event, and the server keeps the CPU and
		// what is left of its grant.
		return task.RunResult{Used: end, Op: task.OpRanOut}, end
	case spanLeft == 0 && (hasWork || cur.ssAlwaysOvertime):
		return task.RunResult{Used: used, Op: task.OpOvertime}, end
	case spanLeft == 0:
		return task.RunResult{Used: used, Op: task.OpRanOut}, end
	case cur.ssAlwaysOvertime:
		// The Figure 5 server "indicates it has work to do at the end
		// of each period": with nothing queued it busy-polls, burning
		// the rest of the span, and still requests overtime.
		return task.RunResult{Used: end, Op: task.OpOvertime, Completed: true}, end
	default:
		return task.RunResult{Used: used, Op: task.OpYield, Completed: true}, end
	}
}
