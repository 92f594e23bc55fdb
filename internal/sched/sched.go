// Package sched implements the Scheduler of the ETI Resource
// Distributor (§4.2): an Earliest Deadline First scheduler that
// enforces the grants computed by the Resource Manager.
//
// The Scheduler makes no policy decisions. It keeps the paper's two
// deadline-ordered queues — TimeRemaining (tasks with unused granted
// CPU this period) and TimeExpired (all others) — plus the
// OvertimeRequested queue for tasks that ran out of grant with work
// left, as one tag per task: a queue is the set of tasks tagged for it,
// in (deadline, ID) order. On each context switch it takes the first
// thread off TimeRemaining, found by a scan of the task table; failing
// that it collects pending grants from the Resource Manager (new grants
// begin only in otherwise-unallocated time, so admission can never
// disturb an admitted task); failing that it runs the first
// OvertimeRequested thread, of which the Idle thread is always one.
// The decision is cached and made again only after a write to what it
// read (decide), so a slice cut by an event the task keeps resumes
// without a scan, and a paid context switch dispatches in its own pass.
//
// The timer interrupt for the next switch is set at the earlier of
// the end of the running thread's grant and the start of a new period
// for a thread whose next deadline precedes the running thread's
// (§4.2). A small-overlap override completes a thread whose remaining
// allocation is smaller than a context switch is worth. Controlled
// preemption (§5.6) gives registered tasks a grace period to yield
// voluntarily before being preempted involuntarily.
package sched

import (
	"fmt"

	"repro/internal/rm"
	"repro/internal/sim"
	"repro/internal/task"
	"repro/internal/telemetry"
	"repro/internal/ticks"
)

// DispatchKind classifies a stretch of CPU given to a task, for
// traces (Figure 4 renders granted time dark and overtime light).
type DispatchKind int

const (
	// DispatchGranted is execution against the period's grant.
	DispatchGranted DispatchKind = iota
	// DispatchOvertime is unallocated time given to an
	// OvertimeRequested thread.
	DispatchOvertime
	// DispatchGrace is execution inside a §5.6 grace period.
	DispatchGrace
	// DispatchSporadic is sporadic-task execution charged to the
	// Sporadic Server's grant (§5.1).
	DispatchSporadic
	// DispatchIdle is the idle thread.
	DispatchIdle
)

func (k DispatchKind) String() string {
	switch k {
	case DispatchGranted:
		return "granted"
	case DispatchOvertime:
		return "overtime"
	case DispatchGrace:
		return "grace"
	case DispatchSporadic:
		return "sporadic"
	case DispatchIdle:
		return "idle"
	default:
		return fmt.Sprintf("DispatchKind(%d)", int(k))
	}
}

// MarshalText encodes the kind by its String name, the form exported
// traces carry.
func (k DispatchKind) MarshalText() ([]byte, error) { return []byte(k.String()), nil }

// UnmarshalText decodes a String name; any other text is an error
// naming it.
func (k *DispatchKind) UnmarshalText(text []byte) error {
	for c := DispatchGranted; c <= DispatchIdle; c++ {
		if c.String() == string(text) {
			*k = c
			return nil
		}
	}
	return fmt.Errorf("sched: unknown dispatch kind %q", text)
}

// Observer receives scheduling events; internal/trace implements it.
// All methods are called from the simulation goroutine.
type Observer interface {
	// OnDispatch reports that tk executed from from to to.
	OnDispatch(id task.ID, name string, from, to ticks.Ticks, kind DispatchKind, level int)
	// OnPeriodStart reports a new period with its grant level.
	OnPeriodStart(id task.ID, start, deadline ticks.Ticks, level int, cpu ticks.Ticks)
	// OnDeadlineMiss reports a guarantee violation: a runnable task
	// reached its deadline with granted CPU undelivered.
	OnDeadlineMiss(id task.ID, deadline, undelivered ticks.Ticks)
	// OnSwitch reports a context switch and its simulated cost.
	OnSwitch(kind sim.SwitchKind, cost ticks.Ticks)
	// OnGrantApplied reports a task beginning to run under a grant.
	OnGrantApplied(id task.ID, g rm.Grant)
	// OnBlock reports that id blocked at time at. Guarantees are void
	// from here until the first full period after waking (§4.2), so
	// checkers must not count the interrupted period as missed.
	OnBlock(id task.ID, at ticks.Ticks)
}

// NopObserver ignores every event. It is the default Observer, and
// the base to embed in an Observer that cares about a few events only.
type NopObserver struct{}

func (NopObserver) OnDispatch(task.ID, string, ticks.Ticks, ticks.Ticks, DispatchKind, int) {}
func (NopObserver) OnPeriodStart(task.ID, ticks.Ticks, ticks.Ticks, int, ticks.Ticks)       {}
func (NopObserver) OnDeadlineMiss(task.ID, ticks.Ticks, ticks.Ticks)                        {}
func (NopObserver) OnSwitch(sim.SwitchKind, ticks.Ticks)                                    {}
func (NopObserver) OnGrantApplied(task.ID, rm.Grant)                                        {}
func (NopObserver) OnBlock(task.ID, ticks.Ticks)                                            {}

// queueID says which paper queue a tcb is on: the tag is the queue
// membership, and nothing else records it.
type queueID uint8

const (
	qNone queueID = iota
	qTimeRemaining
	qTimeExpired
)

// tcb is the Scheduler's per-task control block.
type tcb struct {
	id         task.ID
	name       string
	body       task.Body
	sem        task.Semantics
	filter     task.Filter // non-nil if the body implements task.Filter
	controlled bool        // §5.6 controlled-preemption registration

	grant     rm.Grant
	nextGrant rm.Grant // grant to apply at the next period start, if hasNext
	hasNext   bool

	periodStart ticks.Ticks
	deadline    ticks.Ticks
	remaining   ticks.Ticks // granted CPU left this period
	insertIdle  ticks.Ticks // §5.4 InsertIdleCycles postponement

	usedThisPeriod ticks.Ticks
	prevUsed       ticks.Ticks
	completed      bool // this period's work reported complete
	newPeriod      bool // next dispatch is the first of the period
	everRan        bool // the initial grant has been delivered
	prevLevel      int  // grant level of the previous period
	ffuChanged     bool // FFU access acquired or lost with the grant change
	// ctxFlags are the flags the next dispatch's RunContext carries: the
	// grant changed and the previous period completed, latched by
	// beginPeriod, and a §5.6 exception callback owed after a grace
	// overrun, cleared when it is delivered.
	ctxFlags task.ContextFlags

	queue    queueID
	overtime bool // also on the OvertimeRequested queue
	blocked  bool
	// dropped marks a tcb whose grant was removed. dropTask takes the
	// tcb off every queue; the flag keeps in-flight dispatch plumbing
	// (resolve, maybeGrace) from re-enqueueing it afterwards, which
	// would leave a dangling entry the scheduler dispatches forever.
	dropped bool
	// wokenMidPeriod: the task unblocked mid-period; guarantees
	// resume "in the first full period in which the thread is not
	// blocked" (§4.2), i.e. at the next rollover.
	wokenMidPeriod bool
	wokeAt         ticks.Ticks // when the task last unblocked
	wakeEvent      sim.EventRef
	// lastExitVoluntary records how the task last left the CPU, to
	// pick the switch-cost class when another thread comes on.
	lastExitVoluntary bool
	// coldCache marks a task whose last exit was involuntary: its
	// next dispatch pays the §5.6 cache-refill penalty (if modelled).
	coldCache bool

	// Sporadic Server state (§5.1).
	isSS             bool
	ssAlwaysOvertime bool
	ssAssignLeft     ticks.Ticks
	ssCurrent        *sporadicTask

	// periodSpan is the open telemetry span for the current period,
	// the parent of this period's dispatch spans. Zero when spans are
	// disabled.
	periodSpan telemetry.SpanID

	// nextSpare links the tcbs of dropped tasks (Scheduler.spare).
	nextSpare *tcb

	// Accounting.
	stats TaskStats
}

// TaskStats is the per-task accounting the Scheduler passes back to
// the Resource Manager (§3.3) and to experiments.
type TaskStats struct {
	Periods        int64
	Misses         int64
	GrantedTicks   ticks.Ticks // sum of per-period grants while runnable
	UsedTicks      ticks.Ticks // granted CPU actually consumed
	OvertimeTicks  ticks.Ticks // unallocated CPU consumed
	BlockedPeriods int64
	Exceptions     int64 // failed grace periods
}

// Config parameterises a Scheduler.
type Config struct {
	Kernel *sim.Kernel
	RM     *rm.Manager

	// Observer receives trace events; nil for none.
	Observer Observer

	// OverrideWindow is the small-overlap override (§4.2): if the
	// running thread's remaining grant is at most this when a
	// preemption would occur, it is allowed to finish. Zero selects
	// the default of twice the mean involuntary switch cost.
	OverrideWindow ticks.Ticks

	// GracePeriod is the §5.6 controlled-preemption window ("on the
	// order of a couple hundred µSec"). Zero selects 200 µs.
	GracePeriod ticks.Ticks

	// SporadicSlice is the grant assignment quantum of the Sporadic
	// Server (§5.1, "currently 10 ms"). Zero selects 10 ms.
	SporadicSlice ticks.Ticks

	// Telemetry, when non-nil, receives the Scheduler's counters,
	// queue-depth gauges, and decision spans (docs/OBSERVABILITY.md).
	// Instrument handles are registered here, once; the hot path never
	// looks anything up by name.
	Telemetry *telemetry.Set
}

// Scheduler is the ETI Resource Distributor's EDF scheduler.
type Scheduler struct {
	k   *sim.Kernel
	rmg *rm.Manager
	obs Observer

	override ticks.Ticks
	grace    ticks.Ticks
	ssSlice  ticks.Ticks

	// byID is the task table, in ascending ID order: startTask and
	// dropTask keep it sorted, so the per-iteration rollPeriods walk
	// never rebuilds or sorts a snapshot and find is a binary search.
	byID []*tcb
	// spare lists the tcbs of dropped tasks, linked through nextSpare,
	// for startTask to hand out again (spareTCB).
	spare *tcb
	// nextRoll is the earliest deadline the last full rollPeriods walk
	// left behind, lowered when a task starts a period that ends sooner:
	// no boundary is due before it, so a loop pass at an earlier time
	// skips the walk. A dropped task can leave it too low, which costs
	// one walk and nothing else.
	nextRoll ticks.Ticks

	interrupts []interruptSource // §5.2 sources, indexed by opInterrupt id

	// nRemaining, nExpired and nOvertime count the tasks tagged for
	// TimeRemaining, TimeExpired and OvertimeRequested, the depths the
	// sched.queue.* gauges read. Only enqueue, dequeue and setOvertime
	// move them.
	nRemaining, nExpired, nOvertime int

	running *tcb // thread currently on the CPU; nil at boot

	// dec is the cached outcome of the §4.2 rule, valid while decValid:
	// the Scheduler re-decides only when something decide reads has been
	// written since (redecide), so a pass that resumes the task it just
	// ran neither scans the task table nor recomputes the slice bound.
	dec      decision
	decValid bool

	// switchCredit marks that a context switch was charged to a target
	// that was removed during the switch itself (events fire inside the
	// charged span). The CPU is already in the switched state, so the
	// immediate re-target to another thread must not be charged again.
	switchCredit bool

	sporadics      []*sporadicTask
	nextSporadicID SporadicID
	structGen      uint64 // see StructureGeneration

	// idleStats accounts the implicit Idle thread.
	idleTicks ticks.Ticks

	// tel holds pre-registered telemetry handles (see wireTelemetry);
	// the zero value records nothing.
	tel schedTelemetry
}

// New builds a Scheduler on the given kernel and Resource Manager.
// Wire it as the Manager's Hooks (rm.Config.Hooks) so grant
// notifications flow; internal/core does this.
func New(cfg Config) *Scheduler { return NewIn(nil, cfg) }

// NewIn is New in s's storage (a new Scheduler when s is nil). s keeps
// only its tcbs, every one on the spare list and emptied, so no task of
// the previous run stays reachable through them, and the backing of its
// task table, which holds only those tcbs, emptied. The
// Scheduler s was is gone: whoever held it must not use it again.
func NewIn(s *Scheduler, cfg Config) *Scheduler {
	if cfg.Kernel == nil || cfg.RM == nil {
		panic("sched: Kernel and RM are required")
	}
	obs := cfg.Observer
	if obs == nil {
		obs = NopObserver{}
	}
	override := cfg.OverrideWindow
	if override == 0 {
		override = 2 * ticks.FromMicroseconds(35) // 2x mean involuntary cost
	}
	grace := cfg.GracePeriod
	if grace == 0 {
		grace = ticks.FromMicroseconds(200)
	}
	slice := cfg.SporadicSlice
	if slice == 0 {
		slice = ticks.FromMilliseconds(10)
	}
	if s == nil {
		s = new(Scheduler)
	}
	spare := s.spare
	for _, t := range s.byID {
		t.nextSpare, spare = spare, t
	}
	for t := spare; t != nil; t = t.nextSpare {
		*t = tcb{nextSpare: t.nextSpare}
	}
	*s = Scheduler{
		k:        cfg.Kernel,
		rmg:      cfg.RM,
		obs:      obs,
		override: override,
		grace:    grace,
		ssSlice:  slice,
		spare:    spare,
		byID:     s.byID[:0],
	}
	s.wireTelemetry(cfg.Telemetry)
	return s
}

// --- paper queues ---

// enqueue moves t onto the given paper queue. Its dequeue marks the
// decision stale.
func (s *Scheduler) enqueue(t *tcb, q queueID) {
	s.dequeue(t)
	t.queue = q
	switch q {
	case qTimeRemaining:
		s.nRemaining++
	case qTimeExpired:
		s.nExpired++
	}
}

// dequeue takes t off whatever paper queue it is on.
func (s *Scheduler) dequeue(t *tcb) {
	s.redecide()
	switch t.queue {
	case qTimeRemaining:
		s.nRemaining--
	case qTimeExpired:
		s.nExpired--
	}
	t.queue = qNone
}

func (s *Scheduler) setOvertime(t *tcb, want bool) {
	if t.overtime == want {
		return
	}
	s.redecide()
	t.overtime = want
	if want {
		s.nOvertime++
	} else {
		s.nOvertime--
	}
}

// Stats returns a copy of id's accounting, and whether id is known.
func (s *Scheduler) Stats(id task.ID) (TaskStats, bool) {
	t := s.find(id)
	if t == nil {
		return TaskStats{}, false
	}
	return t.stats, true
}

// PrevPeriod reports the accounting of id's most recently closed
// period: CPU the task consumed (grant, grace, and overtime combined)
// and whether its body declared the period's work complete. beginPeriod
// latches these just before emitting OnPeriodStart, so an Observer that
// receives a period start can query the period it closed.
func (s *Scheduler) PrevPeriod(id task.ID) (used ticks.Ticks, completed bool, ok bool) {
	t := s.find(id)
	if t == nil {
		return 0, false, false
	}
	return t.prevUsed, t.ctxFlags&task.FlagPrevCompleted != 0, true
}

// IdleTicks reports CPU spent in the idle thread.
func (s *Scheduler) IdleTicks() ticks.Ticks { return s.idleTicks }

// NTasks reports the number of tasks the Scheduler currently holds.
func (s *Scheduler) NTasks() int { return len(s.byID) }

// StructureGeneration counts the Scheduler's structural changes: a task
// starting or being dropped, a task blocking or waking, and a §5.1
// grant assignment made or a sporadic task removed. It is to the task
// table what rm.Manager.GrantGeneration is to the committed grants.
// Queue moves, budget charges and period rollovers do not count, so
// the dispatch path never touches it.
func (s *Scheduler) StructureGeneration() uint64 { return s.structGen }

// TaskIDs returns the scheduled task IDs in ascending order.
func (s *Scheduler) TaskIDs() []task.ID {
	out := make([]task.ID, 0, len(s.byID))
	for _, t := range s.byID {
		out = append(out, t.id)
	}
	return out
}
