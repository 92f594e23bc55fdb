// Package task defines the application-facing vocabulary of the ETI
// Resource Distributor: resource lists (§4.1, Table 1), QOS levels,
// task states including quiescence (§5.3), and the grant delivery
// semantics of §5.5 (callback, return, and filter callbacks).
//
// A Task here is the descriptor an application hands to the Resource
// Manager when it requests admittance. The mutable scheduling state
// (queues, deadlines, remaining grant) belongs to internal/sched.
package task

import (
	"errors"
	"fmt"
	"strings"

	"repro/internal/ticks"
)

// ID identifies an admitted task. IDs are assigned by the Resource
// Manager at admission and are never reused within a run.
type ID int32

// NoID is the zero, invalid task ID.
const NoID ID = 0

// Entry is one row of a resource list: one level of QOS the
// application can provide (Table 1). Period and CPU are in 27 MHz
// ticks. Fn is the callback the Scheduler upcalls when the task has
// been granted the resources of this entry.
type Entry struct {
	Period ticks.Ticks
	CPU    ticks.Ticks
	Fn     string // name of the QOS function, e.g. "FullDecompress"

	// NeedsFFU marks entries that require the exclusive Fixed
	// Function Unit (the video scaler in the §5.5 3D example). Grant
	// changes that acquire or lose the FFU force callback semantics.
	NeedsFFU bool

	// StreamerMBps is the entry's Data Streamer bandwidth demand.
	// Table 1 "omits several fields that manage resources other than
	// CPU cycles"; this is one of them. Zero means no demand.
	StreamerMBps int64
}

// Rate reports CPU/Period, the paper's computed "Rate" column.
func (e Entry) Rate() ticks.Rate { return ticks.RateOf(e.CPU, e.Period) }

// Frac reports CPU/Period as an exact fraction for admission sums.
func (e Entry) Frac() ticks.Frac { return ticks.FracOf(e.CPU, e.Period) }

// String renders the entry as the paper's tables do.
func (e Entry) String() string {
	return fmt.Sprintf("{%d %d %s %s}", e.Period, e.CPU, e.Rate(), e.Fn)
}

// Validate checks the entry against the paper's constraints.
func (e Entry) Validate() error {
	switch {
	case e.Period < ticks.MinPeriod:
		return fmt.Errorf("task: period %v below minimum %v", e.Period, ticks.MinPeriod)
	case e.Period > ticks.MaxPeriod:
		return fmt.Errorf("task: period %v above maximum %v", e.Period, ticks.MaxPeriod)
	case e.CPU <= 0:
		return fmt.Errorf("task: CPU requirement %v must be positive", e.CPU)
	case e.CPU > e.Period:
		return fmt.Errorf("task: CPU requirement %v exceeds period %v", e.CPU, e.Period)
	}
	return nil
}

// ResourceList is an ordered list of entries, one per supported QOS
// level, from the maximum (index 0, highest rate) to the minimum
// (last, lowest rate). §4.1: "The resource list is an ordered list of
// entries, each of which corresponds to one level of QOS that the
// application can provide."
type ResourceList []Entry

// ErrEmptyList is returned when a task presents no entries.
var ErrEmptyList = errors.New("task: resource list is empty")

// Validate checks every entry, the max-to-min rate ordering, and
// menu monotonicity: a lower QOS level never demands more of any
// resource (Streamer bandwidth, FFU access) than a higher one. The
// monotone property is what lets the Resource Manager sum minimum
// entries as the admission test in every dimension.
func (rl ResourceList) Validate() error {
	if len(rl) == 0 {
		return ErrEmptyList
	}
	for i, e := range rl {
		if err := e.Validate(); err != nil {
			return fmt.Errorf("entry %d: %w", i, err)
		}
	}
	for i := 1; i < len(rl); i++ {
		// The rates are compared as given: Cmp is exact on any pair with
		// positive denominators, so reducing them first buys nothing.
		rate := ticks.Frac{Num: int64(rl[i].CPU), Den: int64(rl[i].Period)}
		if rate.Cmp(ticks.Frac{Num: int64(rl[i-1].CPU), Den: int64(rl[i-1].Period)}) > 0 {
			return fmt.Errorf("task: entries not ordered max-to-min rate: entry %d (%s) above entry %d (%s)",
				i, rl[i].Rate(), i-1, rl[i-1].Rate())
		}
		if rl[i].StreamerMBps > rl[i-1].StreamerMBps {
			return fmt.Errorf("task: entry %d demands more Streamer bandwidth (%d) than entry %d (%d); menus must be monotone",
				i, rl[i].StreamerMBps, i-1, rl[i-1].StreamerMBps)
		}
		if rl[i].NeedsFFU && !rl[i-1].NeedsFFU {
			return fmt.Errorf("task: entry %d needs the FFU but higher entry %d does not; menus must be monotone", i, i-1)
		}
	}
	return nil
}

// MinNeedsFFU reports whether even the minimum level requires the
// exclusive FFU — such a task is an "FFU resident" and at most one
// may be admitted.
func (rl ResourceList) MinNeedsFFU() bool { return rl.Min().NeedsFFU }

// FirstNonFFU reports the index of the highest level that does not
// require the FFU, and false if every level does.
func (rl ResourceList) FirstNonFFU() (int, bool) {
	for i, e := range rl {
		if !e.NeedsFFU {
			return i, true
		}
	}
	return 0, false
}

// Max returns the maximum (index 0) entry.
func (rl ResourceList) Max() Entry { return rl[0] }

// Min returns the minimum (last) entry. §4.1's admission test sums
// these across all tasks.
func (rl ResourceList) Min() Entry { return rl[len(rl)-1] }

// MinFrac is the exact minimum rate, the admission-control term.
func (rl ResourceList) MinFrac() ticks.Frac { return rl.Min().Frac() }

// String renders the list like the paper's tables.
func (rl ResourceList) String() string {
	var b strings.Builder
	b.WriteString("[")
	for i, e := range rl {
		if i > 0 {
			b.WriteString(" ")
		}
		b.WriteString(e.String())
	}
	b.WriteString("]")
	return b.String()
}

// Clone returns a deep copy, so callers can hold lists across a
// ChangeResourceList without aliasing the admitted copy.
func (rl ResourceList) Clone() ResourceList {
	out := make(ResourceList, len(rl))
	copy(out, rl)
	return out
}

// State is the admission-visible state of a task.
type State int

const (
	// Runnable tasks hold a grant and are scheduled each period.
	Runnable State = iota
	// Blocked tasks have voluntarily blocked; guarantees are void
	// until the first full period after they unblock (§4.2).
	Blocked
	// Quiescent tasks use no resources and are not scheduled, but
	// are counted by admission control so they can never be denied
	// when they wake (§5.3).
	Quiescent
)

func (s State) String() string {
	switch s {
	case Runnable:
		return "runnable"
	case Blocked:
		return "blocked"
	case Quiescent:
		return "quiescent"
	default:
		return fmt.Sprintf("State(%d)", int(s))
	}
}

// Semantics selects how a grant is delivered at each new period
// (§5.5). All tasks receive return semantics when resuming after a
// mid-grant preemption; Semantics governs period boundaries.
type Semantics int

const (
	// CallbackSemantics: a fresh upcall to the entry's function at
	// the start of every period, stack cleared. For truly periodic
	// tasks (MPEG, modem, audio).
	CallbackSemantics Semantics = iota
	// ReturnSemantics: the task continues where it left off across
	// period boundaries. For 2D/3D graphics.
	ReturnSemantics
)

func (s Semantics) String() string {
	if s == CallbackSemantics {
		return "callback"
	}
	return "return"
}

// Op is what a task did with the span of CPU it was offered.
type Op int

const (
	// OpRanOut: the task consumed the entire offered span and was
	// still running when the timer fired (involuntary preemption).
	OpRanOut Op = iota
	// OpYield: the task finished its work for the period and
	// voluntarily yielded the remainder of its grant.
	OpYield
	// OpBlock: the task blocked on I/O or synchronization. Its
	// guarantees are void until the first full period after waking.
	OpBlock
	// OpOvertime: the task consumed the entire span and asks for
	// more (it joins the OvertimeRequested queue, §4.2).
	OpOvertime
	// OpExit: the task terminated naturally and should leave the
	// system.
	OpExit
)

func (o Op) String() string {
	switch o {
	case OpRanOut:
		return "ran-out"
	case OpYield:
		return "yield"
	case OpBlock:
		return "block"
	case OpOvertime:
		return "overtime"
	case OpExit:
		return "exit"
	default:
		return fmt.Sprintf("Op(%d)", int(o))
	}
}

// RunContext is handed to a task body when the Scheduler gives it the
// CPU. It carries the §5.5 calling arguments: "whether the previous
// call completed, the sum of the resources used in the previous call,
// and an indicator of which grant has been assigned for this period."
//
// Every dispatch passes one by value, so it is kept to eight
// register-sized fields: with the body's receiver that is the nine
// integer argument registers of amd64's Go ABI, and the call needs no
// stack copy. The rarely read booleans share the Flags byte.
type RunContext struct {
	Now  ticks.Ticks // current virtual time
	Span ticks.Ticks // CPU available before the next scheduling event

	// PeriodStart is the start of the current period. Dispatch may
	// happen anywhere inside the period (EDF delivers the grant at
	// any point, §4.2), so clock-synchronization code must anchor on
	// this rather than Now (§5.4).
	PeriodStart ticks.Ticks

	Level     int  // index into the resource list of the active grant
	NewPeriod bool // true for the first dispatch of a period (callback)

	PrevUsed ticks.Ticks // resources consumed in the previous period

	// UsedThisPeriod is the CPU already consumed in the current
	// period, letting bodies resume mid-period work under return
	// semantics without keeping their own clocks.
	UsedThisPeriod ticks.Ticks

	// Flags holds the four rarely read calling arguments; read them
	// through GrantChanged, PrevCompleted, InGracePeriod and Exception.
	Flags ContextFlags
}

// ContextFlags are the boolean calling arguments of a RunContext.
type ContextFlags uint8

const (
	// FlagGrantChanged: Level differs from the previous period's.
	FlagGrantChanged ContextFlags = 1 << iota
	// FlagPrevCompleted: the previous period's work completed.
	FlagPrevCompleted
	// FlagInGracePeriod: the scheduler has requested a controlled
	// preemption (§5.6), and the body must yield within the grace
	// period or be involuntarily preempted.
	FlagInGracePeriod
	// FlagException: the task failed to yield inside a grace period and
	// was involuntarily preempted; this is the first dispatch since
	// (§5.6: "When next run, it is sent an exception callback, enabling
	// it to clean up").
	FlagException
)

// GrantChanged reports whether Level differs from the previous period's.
func (c RunContext) GrantChanged() bool { return c.Flags&FlagGrantChanged != 0 }

// PrevCompleted reports whether the previous period's work completed.
func (c RunContext) PrevCompleted() bool { return c.Flags&FlagPrevCompleted != 0 }

// InGracePeriod reports a §5.6 grace-period dispatch.
func (c RunContext) InGracePeriod() bool { return c.Flags&FlagInGracePeriod != 0 }

// Exception reports the §5.6 exception callback after a grace overrun.
func (c RunContext) Exception() bool { return c.Flags&FlagException != 0 }

// RunResult reports what the body did with its span.
type RunResult struct {
	Used ticks.Ticks // CPU consumed; 0 <= Used <= ctx.Span
	Op   Op

	// BlockFor is how long the task stays blocked when Op==OpBlock.
	// Zero means "until explicitly unblocked".
	BlockFor ticks.Ticks

	// Completed marks the period's work as done (reported back in
	// the next period's PrevCompleted).
	Completed bool
}

// Body is the executable part of a task: the simulation stand-in for
// the QOS functions named in the resource list. The scheduler calls
// Run whenever the task is dispatched; the body simulates consuming
// CPU and tells the scheduler how the dispatch ended.
type Body interface {
	Run(ctx RunContext) RunResult
}

// BodyFunc adapts a function to the Body interface.
type BodyFunc func(ctx RunContext) RunResult

// Run implements Body.
func (f BodyFunc) Run(ctx RunContext) RunResult { return f(ctx) }

// Filter is the optional §5.5 filter-callback interface. When a task
// using return semantics has its grant changed, the scheduler calls
// FilterGrantChange instead of either returning or upcalling; the
// task cleans up and says which semantics it wants for this one call.
type Filter interface {
	FilterGrantChange(oldLevel, newLevel int) Semantics
}

// Task is the descriptor presented to the Resource Manager at
// admission.
type Task struct {
	Name string
	List ResourceList
	Body Body

	// Semantics selects period-boundary delivery (§5.5).
	Semantics Semantics

	// StartQuiescent admits the task in the quiescent state: counted
	// for admission, ignored for grants, until Wake is called (§5.3).
	StartQuiescent bool

	// ControlledPreemption registers the task for §5.6 grace-period
	// notification: the scheduler will set a notification flag and
	// allow GracePeriod for the task to voluntarily yield before
	// forcing an involuntary preemption.
	ControlledPreemption bool
}

// Validate checks the descriptor.
func (t *Task) Validate() error {
	if t.Name == "" {
		return errors.New("task: name is required")
	}
	if t.Body == nil {
		return fmt.Errorf("task %q: body is required", t.Name)
	}
	if err := t.List.Validate(); err != nil {
		return fmt.Errorf("task %q: %w", t.Name, err)
	}
	return nil
}
