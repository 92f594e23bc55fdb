package sched

import (
	"fmt"
	"slices"
	"testing"

	"repro/internal/rm"
	"repro/internal/sim"
	"repro/internal/task"
	"repro/internal/ticks"
)

// auditNaive is the structural audit as first written: a map of live
// sporadic tasks and a linear membership scan per task per queue. It
// shares no bookkeeping with Audit (no stamps, no marks), which makes
// it the oracle Audit's findings are compared against, element for
// element.
func auditNaive(s *Scheduler) AuditReport {
	var r AuditReport
	add := func(format string, args ...any) {
		r.Findings = append(r.Findings, fmt.Sprintf(format, args...))
	}
	contains := func(q []*tcb, t *tcb) bool {
		for _, x := range q {
			if x == t {
				return true
			}
		}
		return false
	}

	checkQueue := func(label string, q []*tcb, want queueID) {
		for _, t := range q {
			if t.dropped {
				add("%s holds dropped task %d (%s)", label, t.id, t.name)
			}
			if !contains(s.byID, t) {
				add("%s holds task %d (%s) not in the task table", label, t.id, t.name)
			}
			if t.queue != want {
				add("%s holds task %d (%s) whose queue tag is %d", label, t.id, t.name, t.queue)
			}
		}
	}
	checkQueue("TimeRemaining", s.timeRemaining, qTimeRemaining)
	checkQueue("TimeExpired", s.timeExpired, qTimeExpired)
	for _, t := range s.overtimeQ {
		if t.dropped {
			add("OvertimeRequested holds dropped task %d (%s)", t.id, t.name)
		}
		if !contains(s.byID, t) {
			add("OvertimeRequested holds task %d (%s) not in the task table", t.id, t.name)
		}
		if !t.overtime {
			add("OvertimeRequested holds task %d (%s) with overtime flag clear", t.id, t.name)
		}
	}

	live := make(map[*sporadicTask]bool, len(s.sporadics))
	for _, sp := range s.sporadics {
		live[sp] = true
	}
	for _, t := range s.tasksByID() {
		if t.dropped {
			add("task table holds dropped task %d (%s)", t.id, t.name)
		}
		switch t.queue {
		case qTimeRemaining:
			if !contains(s.timeRemaining, t) {
				add("task %d (%s) tagged TimeRemaining but absent from the queue", t.id, t.name)
			}
		case qTimeExpired:
			if !contains(s.timeExpired, t) {
				add("task %d (%s) tagged TimeExpired but absent from the queue", t.id, t.name)
			}
		}
		if t.overtime != contains(s.overtimeQ, t) {
			add("task %d (%s) overtime flag %v disagrees with queue membership", t.id, t.name, t.overtime)
		}
		if t.remaining < 0 || t.remaining > t.grant.Entry.CPU {
			add("task %d (%s) budget not conserved: remaining %v of granted %v",
				t.id, t.name, t.remaining, t.grant.Entry.CPU)
		}
		if t.ssCurrent != nil && !live[t.ssCurrent] {
			add("task %d (%s) holds a grant assignment to removed sporadic task %d (%s)",
				t.id, t.name, t.ssCurrent.id, t.ssCurrent.name)
		}
		if t.ssCurrent == nil && t.ssAssignLeft != 0 {
			add("task %d (%s) has %v assignment budget but no assignee",
				t.id, t.name, t.ssAssignLeft)
		}
	}

	if s.running != nil {
		if s.running.dropped {
			add("running task %d (%s) was dropped", s.running.id, s.running.name)
		} else if !contains(s.byID, s.running) {
			add("running task %d (%s) not in the task table", s.running.id, s.running.name)
		}
	}
	return r
}

// auditMatchesNaive fails the test unless Audit and the oracle report
// the same findings in the same order, and returns them.
func auditMatchesNaive(t *testing.T, s *Scheduler, when string) []string {
	t.Helper()
	want := auditNaive(s).Findings
	got := s.Audit().Findings
	if !slices.Equal(got, want) {
		t.Fatalf("%s: Audit disagrees with the naive oracle\n got: %q\nwant: %q", when, got, want)
	}
	return got
}

// auditingObserver compares Audit with the oracle at the two points
// where a run's bookkeeping is most in flux: every period start (where
// the invariant checker audits) and every dispatch.
type auditingObserver struct {
	NopObserver
	t      *testing.T
	s      *Scheduler
	audits int
}

func (o *auditingObserver) check(when string) {
	o.audits++
	if f := auditMatchesNaive(o.t, o.s, when); len(f) != 0 {
		o.t.Fatalf("%s: live scheduler failed its audit: %q", when, f)
	}
}

func (o *auditingObserver) OnPeriodStart(id task.ID, start, _ ticks.Ticks, _ int, _ ticks.Ticks) {
	o.check(fmt.Sprintf("period start of task %d at %v", id, start))
}

func (o *auditingObserver) OnDispatch(id task.ID, _ string, from, _ ticks.Ticks, _ DispatchKind, _ int) {
	o.check(fmt.Sprintf("dispatch of task %d at %v", id, from))
}

func newAuditedSystem(t *testing.T, costs sim.SwitchCosts) (*sim.Kernel, *rm.Manager, *Scheduler, *auditingObserver) {
	k := sim.NewKernel(sim.Config{Seed: 1, Costs: costs})
	m := rm.New(rm.Config{})
	obs := &auditingObserver{t: t}
	s := New(Config{Kernel: k, RM: m, Observer: obs})
	obs.s = s
	m.SetHooks(s)
	return k, m, s, obs
}

// TestAuditMatchesNaiveOnLiveRuns drives the scheduler through the
// adversarial-body, grant-removal and sporadic-removal scenarios of
// the neighbouring test files with the oracle comparison riding every
// period start and dispatch.
func TestAuditMatchesNaiveOnLiveRuns(t *testing.T) {
	t.Run("adversarial", func(t *testing.T) {
		for seed := uint64(1); seed <= 12; seed++ {
			rng := sim.NewRNG(seed)
			_, m, s, obs := newAuditedSystem(t, sim.ZeroSwitchCosts())
			mustAdmit(t, m, &task.Task{
				Name: "victim",
				List: task.SingleLevel(10*ms, 4*ms, "V"),
				Body: task.PeriodicWork(4 * ms),
			})
			for i := 0; i < 4; i++ {
				_, _ = m.RequestAdmittance(&task.Task{
					Name: fmt.Sprintf("adv%d", i),
					List: task.SingleLevel(ticks.Ticks(7+rng.Intn(10))*ms, 1*ms, "A"),
					Body: adversarialBody(rng.Intn(6), rng),
				})
			}
			s.RunUntil(300 * ms)
			if obs.audits == 0 {
				t.Fatal("the observer never audited")
			}
		}
	})

	t.Run("remove-running-task", func(t *testing.T) {
		_, m, s, _ := newAuditedSystem(t, sim.ZeroSwitchCosts())
		var victim task.ID
		victim = mustAdmit(t, m, &task.Task{
			Name: "victim",
			List: task.SingleLevel(10*ms, 3*ms, "Victim"),
			Body: task.BodyFunc(func(ctx task.RunContext) task.RunResult {
				if ctx.Now >= 20*ms {
					_ = m.Remove(victim) // revoke our own grant mid-dispatch, then misbehave
					return task.RunResult{Used: ctx.Span, Op: task.OpOvertime}
				}
				return task.RunResult{Used: ctx.Span, Op: task.OpRanOut}
			}),
		})
		mustAdmit(t, m, &task.Task{Name: "other", List: task.SingleLevel(10*ms, 2*ms, "Other"), Body: task.PeriodicWork(2 * ms)})
		s.RunUntil(100 * ms)
		auditMatchesNaive(t, s, "after self-removal")
	})

	t.Run("remove-during-charged-switch", func(t *testing.T) {
		costs := sim.PaperSwitchCosts()
		costs.Deterministic = true
		k, m, s, _ := newAuditedSystem(t, costs)
		mustAdmit(t, m, &task.Task{Name: "a", List: task.SingleLevel(10*ms, 3*ms, "A"), Body: task.PeriodicWork(3 * ms)})
		b := mustAdmit(t, m, &task.Task{Name: "b", List: task.SingleLevel(10*ms, 3*ms, "B"), Body: task.Busy()})
		mustAdmit(t, m, &task.Task{Name: "c", List: task.SingleLevel(10*ms, 2*ms, "C"), Body: task.Busy()})
		k.At(3*ms+ticks.FromMicroseconds(40)+10, func() { _ = m.Remove(b) })
		s.RunUntil(50 * ms)
		auditMatchesNaive(t, s, "after mid-switch removal")
	})

	t.Run("remove-sporadic-mid-assignment", func(t *testing.T) {
		_, m, s, _ := newAuditedSystem(t, sim.ZeroSwitchCosts())
		donor := mustAdmit(t, m, &task.Task{Name: "donor", List: task.SingleLevel(10*ms, 5*ms, "Donor"), Body: task.PeriodicWork(5 * ms)})
		sp := s.AddSporadic("burst", task.Busy())
		s.RunUntil(1)
		if err := s.AssignGrant(donor, sp, 50*ms); err != nil {
			t.Fatal(err)
		}
		s.RunUntil(12 * ms)
		s.RemoveSporadic(sp)
		auditMatchesNaive(t, s, "right after RemoveSporadic")
		s.RunUntil(100 * ms)
	})

	t.Run("remove-sporadic-under-server", func(t *testing.T) {
		_, m, s, _ := newAuditedSystem(t, sim.ZeroSwitchCosts())
		server := mustAdmit(t, m, &task.Task{Name: "ss", List: task.SingleLevel(10*ms, 2*ms, "SS"), Body: task.Busy()})
		if err := s.AttachSporadicServer(server, true); err != nil {
			t.Fatal(err)
		}
		mustAdmit(t, m, &task.Task{Name: "p", List: task.SingleLevel(20*ms, 6*ms, "P"), Body: task.PeriodicWork(6 * ms)})
		sp := s.AddSporadic("job", task.Busy())
		s.AddSporadic("job2", task.Busy())
		s.RunUntil(5 * ms)
		s.RemoveSporadic(sp)
		auditMatchesNaive(t, s, "right after RemoveSporadic")
		s.RunUntil(80 * ms)
	})
}

// corruptibleSystem runs three tasks and a sporadic job far enough
// that every queue is populated, audits clean, and hands the scheduler
// over for deliberate damage.
func corruptibleSystem(t *testing.T) (*Scheduler, []*tcb) {
	t.Helper()
	_, m, s := newSystem(0, sim.ZeroSwitchCosts())
	mustAdmit(t, m, &task.Task{Name: "short", List: task.SingleLevel(10*ms, 2*ms, "S"), Body: task.PeriodicWork(2 * ms)})
	mustAdmit(t, m, &task.Task{Name: "long", List: task.SingleLevel(40*ms, 12*ms, "L"), Body: task.Busy()})
	mustAdmit(t, m, &task.Task{Name: "greedy", List: task.SingleLevel(20*ms, 3*ms, "G"), Body: task.BodyFunc(func(ctx task.RunContext) task.RunResult {
		return task.RunResult{Used: ctx.Span, Op: task.OpOvertime}
	})})
	s.AddSporadic("job", task.Busy())
	// Step a millisecond at a time to the first instant with a task
	// waiting on each of the three queues.
	populated := func() bool {
		return len(s.timeRemaining) > 0 && len(s.timeExpired) > 0 && len(s.overtimeQ) > 0
	}
	for at := 1 * ms; !populated(); at += ms {
		if at > 200*ms {
			t.Fatal("setup: the three queues were never populated together")
		}
		s.RunUntil(at)
	}
	if f := auditMatchesNaive(t, s, "before corruption"); len(f) != 0 {
		t.Fatalf("setup: clean scheduler reports %q", f)
	}
	return s, s.tasksByID()
}

// auditCorruption damages the bookkeeping in one way the audit exists
// to notice.
type auditCorruption struct {
	name string
	// live: a running scheduler survives the damage — it neither panics
	// nor spins on it — so it may be planted mid-run (FuzzAuditGate).
	// Two kinds of damage spin the run loop at one instant: a queue entry
	// whose tag names another queue (once at the front with its grant
	// spent, every pass re-files it and picks it again), and a dropped
	// task still queued in the table (resolve leaves a dropped task where
	// it is, so one whose body uses nothing is picked again, at the same
	// instant).
	live bool
	// corrupt damages s, whose task table is ts, and reports false —
	// having changed nothing — when s lacks what the damage needs.
	corrupt func(s *Scheduler, ts []*tcb) bool
}

// ghost is a sporadic task the scheduler never heard of. It has a body,
// so a live scheduler that dispatches the dangling assignment runs it.
func ghost() *sporadicTask { return &sporadicTask{id: 99, name: "ghost", body: task.Busy()} }

var auditCorruptions = []auditCorruption{
	{"dropped task left on a queue", true, func(s *Scheduler, ts []*tcb) bool {
		// Off the overtime queue, the dropped task is never picked again.
		i := slices.IndexFunc(s.timeExpired, func(x *tcb) bool { return !x.overtime })
		if i < 0 {
			return false
		}
		v := s.timeExpired[i]
		v.dropped = true
		s.byID = slices.DeleteFunc(slices.Clone(s.byID), func(x *tcb) bool { return x == v })
		return true
	}},
	{"dropped task still in the table and on the overtime queue", false, func(s *Scheduler, ts []*tcb) bool {
		if len(s.overtimeQ) == 0 {
			return false
		}
		s.overtimeQ[0].dropped = true
		return true
	}},
	{"wrong queue tag", false, func(s *Scheduler, ts []*tcb) bool {
		if len(s.timeRemaining) == 0 {
			return false
		}
		s.timeRemaining[0].queue = qTimeExpired
		return true
	}},
	{"queue tag cleared", true, func(s *Scheduler, ts []*tcb) bool {
		if len(s.timeExpired) == 0 {
			return false
		}
		s.timeExpired[0].queue = qNone
		return true
	}},
	{"tagged but taken off the queue", true, func(s *Scheduler, ts []*tcb) bool {
		if len(s.timeExpired) == 0 {
			return false
		}
		// The previous audit pass marked this tcb as seen on
		// TimeExpired; a stale mark must not hide its absence now.
		s.timeExpired = s.timeExpired[1:]
		return true
	}},
	{"on both paper queues", false, func(s *Scheduler, ts []*tcb) bool {
		if len(s.timeExpired) == 0 {
			return false
		}
		s.timeRemaining = append(s.timeRemaining, s.timeExpired[0])
		return true
	}},
	{"overtime flag flipped on", true, func(s *Scheduler, ts []*tcb) bool {
		for _, x := range ts {
			if !x.overtime {
				x.overtime = true
				return true
			}
		}
		return false
	}},
	{"overtime flag flipped off", false, func(s *Scheduler, ts []*tcb) bool {
		if len(s.overtimeQ) == 0 {
			return false
		}
		s.overtimeQ[0].overtime = false
		return true
	}},
	{"dangling ssCurrent", true, func(s *Scheduler, ts []*tcb) bool {
		if len(ts) == 0 {
			return false
		}
		ts[0].ssCurrent, ts[0].ssAssignLeft = ghost(), 5*ms
		return true
	}},
	{"assignee removed behind the scheduler's back", true, func(s *Scheduler, ts []*tcb) bool {
		if len(ts) < 2 || len(s.sporadics) == 0 {
			return false
		}
		ts[1].ssCurrent, ts[1].ssAssignLeft = s.sporadics[0], 5*ms
		s.sporadics = nil
		return true
	}},
	{"assignment budget without assignee", true, func(s *Scheduler, ts []*tcb) bool {
		if len(ts) < 2 || ts[1].ssCurrent != nil {
			return false
		}
		ts[1].ssAssignLeft = 3 * ms
		return true
	}},
	{"budget negative", true, func(s *Scheduler, ts []*tcb) bool {
		if len(ts) == 0 {
			return false
		}
		ts[0].remaining = -1
		return true
	}},
	{"budget above the grant", true, func(s *Scheduler, ts []*tcb) bool {
		if len(ts) == 0 {
			return false
		}
		x := ts[len(ts)-1]
		x.remaining = x.grant.Entry.CPU + 1
		return true
	}},
	{"running task dropped", false, func(s *Scheduler, ts []*tcb) bool {
		if len(ts) == 0 {
			return false
		}
		s.running = ts[0]
		ts[0].dropped = true
		return true
	}},
	{"running task not in the table", true, func(s *Scheduler, ts []*tcb) bool {
		s.running = &tcb{id: 77, name: "stranger"}
		return true
	}},
	{"table entry replaced by a twin", true, func(s *Scheduler, ts []*tcb) bool {
		if len(ts) == 0 {
			return false
		}
		twin := *ts[0]
		s.byID = slices.Clone(s.byID)
		s.byID[0] = &twin
		return true
	}},
	{"everything at once", false, func(s *Scheduler, ts []*tcb) bool {
		if len(ts) < 3 || len(s.timeRemaining) == 0 || len(s.timeExpired) == 0 || len(s.overtimeQ) == 0 {
			return false
		}
		s.timeRemaining[0].queue = qTimeExpired
		s.overtimeQ[0].overtime = false
		s.timeExpired = append(s.timeExpired[1:], &tcb{id: 55, name: "stray", queue: qTimeRemaining, dropped: true})
		ts[0].remaining = -7
		ts[1].ssCurrent = ghost()
		ts[2].ssAssignLeft = 1
		s.running = &tcb{id: 77, name: "stranger", dropped: true}
		return true
	}},
}

// TestAuditMatchesNaiveOnCorruptedState damages the bookkeeping in
// every way the audit exists to notice and requires the same findings,
// in the same words and order, from Audit and from the oracle.
func TestAuditMatchesNaiveOnCorruptedState(t *testing.T) {
	for _, c := range auditCorruptions {
		t.Run(c.name, func(t *testing.T) {
			s, ts := corruptibleSystem(t)
			if !c.corrupt(s, ts) {
				t.Fatal("the populated system lacks what the corruption needs")
			}
			if f := auditMatchesNaive(t, s, "after corruption"); len(f) == 0 {
				t.Fatal("corruption went unnoticed by both audits")
			}
			// A second pass sees the same state: marks left by the
			// first must not change the verdict.
			auditMatchesNaive(t, s, "second pass")
		})
	}
}

// TestAuditCleanAllocFree pins the recurring cost: a consistent
// scheduler is audited without allocating.
func TestAuditCleanAllocFree(t *testing.T) {
	s, _ := corruptibleSystem(t)
	if n := testing.AllocsPerRun(100, func() {
		if !s.Audit().OK() {
			t.Fatal("clean scheduler failed its audit")
		}
	}); n != 0 {
		t.Errorf("clean Audit allocates %v objects per call, want 0", n)
	}
}
