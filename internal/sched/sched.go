// Package sched implements the Scheduler of the ETI Resource
// Distributor (§4.2): an Earliest Deadline First scheduler that
// enforces the grants computed by the Resource Manager.
//
// The Scheduler makes no policy decisions. It maintains the paper's
// two deadline-ordered queues — TimeRemaining (tasks with unused
// granted CPU this period) and TimeExpired (all others) — plus the
// OvertimeRequested queue for tasks that ran out of grant with work
// left. On each context switch it takes the first thread off
// TimeRemaining; failing that it collects pending grants from the
// Resource Manager (new grants begin only in otherwise-unallocated
// time, so admission can never disturb an admitted task); failing
// that it runs the first OvertimeRequested thread, of which the Idle
// thread is always one.
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

// queueID says which paper queue a tcb currently lives on.
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
	nextGrant *rm.Grant // grant to apply at the next period start

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

	// Audit marks (audit.go): the queues the latest Audit pass found
	// this tcb on, valid only while auditEpoch equals that pass's stamp.
	auditEpoch uint64
	auditSeen  uint8

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
	// nextRoll is the earliest deadline the last full rollPeriods walk
	// left behind, lowered when a task starts a period that ends sooner:
	// no boundary is due before it, so a loop pass at an earlier time
	// skips the walk. A dropped task can leave it too low, which costs
	// one walk and nothing else.
	nextRoll ticks.Ticks

	interrupts []interruptSource // §5.2 sources, indexed by opInterrupt id

	timeRemaining []*tcb // deadline-ordered
	timeExpired   []*tcb // deadline-ordered
	overtimeQ     []*tcb // deadline-ordered; conceptually ends with Idle

	running *tcb // thread currently on the CPU; nil at boot

	// switchCredit marks that a context switch was charged to a target
	// that was removed during the switch itself (events fire inside the
	// charged span). The CPU is already in the switched state, so the
	// immediate re-target to another thread must not be charged again.
	switchCredit bool

	sporadics      []*sporadicTask
	nextSporadicID SporadicID
	auditEpoch     uint64           // stamp of the latest Audit pass
	structGen      uint64           // see StructureGeneration
	pendingSS      map[task.ID]bool // server marks awaiting first pickup

	// idleStats accounts the implicit Idle thread.
	idleTicks ticks.Ticks

	// tel holds pre-registered telemetry handles (see wireTelemetry);
	// the zero value records nothing.
	tel schedTelemetry
}

// New builds a Scheduler on the given kernel and Resource Manager.
// Wire it as the Manager's Hooks (rm.Config.Hooks) so grant
// notifications flow; internal/core does this.
func New(cfg Config) *Scheduler {
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
	s := &Scheduler{
		k:        cfg.Kernel,
		rmg:      cfg.RM,
		obs:      obs,
		override: override,
		grace:    grace,
		ssSlice:  slice,
	}
	s.wireTelemetry(cfg.Telemetry)
	return s
}

// --- deadline-ordered queue helpers ---

// insertByDeadline places t by strict (deadline, id) order, shifting
// later entries up from the tail: the queues hold a handful of tasks
// and a new deadline usually belongs at or near the back.
func insertByDeadline(q []*tcb, t *tcb) []*tcb {
	q = append(q, nil)
	i := len(q) - 1
	for i > 0 && (q[i-1].deadline > t.deadline || q[i-1].deadline == t.deadline && q[i-1].id > t.id) {
		q[i] = q[i-1]
		i--
	}
	q[i] = t
	return q
}

func removeFrom(q []*tcb, t *tcb) []*tcb {
	for i, x := range q {
		if x == t {
			copy(q[i:], q[i+1:])
			return q[:len(q)-1]
		}
	}
	return q
}

// enqueue places t on the given paper queue, removing it from its
// previous one.
func (s *Scheduler) enqueue(t *tcb, q queueID) {
	s.dequeue(t)
	t.queue = q
	switch q {
	case qTimeRemaining:
		s.timeRemaining = insertByDeadline(s.timeRemaining, t)
	case qTimeExpired:
		s.timeExpired = insertByDeadline(s.timeExpired, t)
	}
}

// dequeue removes t from whatever paper queue it is on.
func (s *Scheduler) dequeue(t *tcb) {
	switch t.queue {
	case qTimeRemaining:
		s.timeRemaining = removeFrom(s.timeRemaining, t)
	case qTimeExpired:
		s.timeExpired = removeFrom(s.timeExpired, t)
	}
	t.queue = qNone
}

func (s *Scheduler) setOvertime(t *tcb, want bool) {
	if t.overtime == want {
		return
	}
	t.overtime = want
	if want {
		s.overtimeQ = insertByDeadline(s.overtimeQ, t)
	} else {
		s.overtimeQ = removeFrom(s.overtimeQ, t)
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
