package rm

import (
	"cmp"
	"errors"
	"fmt"
	"slices"

	"repro/internal/policy"
	"repro/internal/task"
	"repro/internal/ticks"
)

// Hooks is how the Resource Manager signals the Scheduler. §4.2:
// increases are deferred ("the next time there is unallocated CPU
// time, the Scheduler makes a callback to the Resource Manager to get
// the new grant information" — HasPending and CollectGrants are that
// callback; nothing is pushed), while removals and decreases take
// effect at the affected task's next period and are signalled
// immediately.
type Hooks interface {
	// GrantDecreased tells the Scheduler that id's grant shrank; the
	// decrease applies from id's next period.
	GrantDecreased(id task.ID, g Grant)
	// GrantRemoved tells the Scheduler that id no longer has a grant
	// (task exited or went quiescent).
	GrantRemoved(id task.ID)
}

// NopHooks is a Hooks that does nothing, for tests that exercise the
// Manager in isolation.
type NopHooks struct{}

func (NopHooks) GrantDecreased(task.ID, Grant) {}
func (NopHooks) GrantRemoved(task.ID)          {}

// Errors returned by admission and state changes.
var (
	// ErrAdmissionDenied is returned when the minimum resource-list
	// entries of the task set would exceed the schedulable CPU.
	ErrAdmissionDenied = errors.New("rm: admission denied: insufficient resources for minimum grants")
	// ErrStreamerDenied is returned when the minimum entries' Data
	// Streamer bandwidth demands would exceed capacity.
	ErrStreamerDenied = errors.New("rm: admission denied: insufficient Data Streamer bandwidth for minimum grants")
	// ErrFFUDenied is returned when a second task whose minimum level
	// requires the exclusive FFU asks for admission.
	ErrFFUDenied = errors.New("rm: admission denied: the FFU is exclusive and already reserved at another task's minimum level")
	// ErrUnknownTask is returned for operations on a task ID that is
	// not admitted.
	ErrUnknownTask = errors.New("rm: unknown task")
)

// CPUDenialError is the admission denial of a task whose minimum rate
// does not fit the schedulable CPU. It carries the two fractions the
// test compared and renders them only if someone reads the message:
// under fleet spillover a node denies several times per accept, and
// nobody reads those. errors.Is(err, ErrAdmissionDenied) holds.
type CPUDenialError struct {
	MinSum      ticks.Frac // the admission running sum, had the task been admitted
	Schedulable ticks.Frac // Manager.Available()
}

func (e *CPUDenialError) Error() string {
	return fmt.Sprintf("%v: min sum would be %.4f of %.4f schedulable",
		ErrAdmissionDenied, e.MinSum.Float(), e.Schedulable.Float())
}

func (e *CPUDenialError) Unwrap() error { return ErrAdmissionDenied }

// StreamerDenialError is the admission denial of a task whose minimum
// Data Streamer demand does not fit the capacity.
// errors.Is(err, ErrStreamerDenied) holds.
type StreamerDenialError struct {
	MinMBps, CapacityMBps int64
}

func (e *StreamerDenialError) Error() string {
	return fmt.Sprintf("%v: min demands would be %d of %d MB/s",
		ErrStreamerDenied, e.MinMBps, e.CapacityMBps)
}

func (e *StreamerDenialError) Unwrap() error { return ErrStreamerDenied }

// admitted is the Manager's record of one admitted task.
type admitted struct {
	id   task.ID
	t    *task.Task
	list task.ResourceList // admitted copy (descriptor may be reused)
	// fracs[j] is list[j].Frac(), derived once when the list is
	// admitted: grant computation walks every entry's rate on every
	// correlation pass.
	fracs  []ticks.Frac
	member policy.MemberID
	state  task.State
}

func (a *admitted) minFrac() ticks.Frac { return a.fracs[len(a.fracs)-1] }

func fracsOf(list task.ResourceList) []ticks.Frac {
	out := make([]ticks.Frac, len(list))
	for j := range list {
		out[j] = list[j].Frac()
	}
	return out
}

// Manager is the Resource Manager.
type Manager struct {
	box   *policy.Box
	hooks Hooks

	// reserve is the CPU fraction set aside for interrupt handling
	// (§5.2). The Figure 5 run reserves 4%. avail is 1 - reserve, the
	// schedulable fraction every admission test compares against;
	// both are fixed at construction.
	reserve ticks.Frac
	avail   ticks.Frac

	// streamer is the Data Streamer bandwidth capacity; the zero
	// value leaves the dimension unmodelled.
	streamer Capacity

	nextID task.ID
	// tasks is the task table in ascending ID order. IDs are handed out
	// in order, so admission appends; lookups (find) are a binary search
	// over the handful of tasks one CPU admits.
	tasks []*admitted

	// minSum is the running sum of minimum rates over ALL admitted
	// tasks (runnable, blocked, and quiescent) that makes admission
	// control O(1) (§6.2).
	minSum ticks.Frac

	// maxSum is the running sum of maximum rates over non-quiescent
	// tasks, giving the O(1) underload fast path of §6.3.
	maxSum ticks.Frac

	// minStreamerSum parallels minSum for Streamer bandwidth (all
	// admitted tasks); maxStreamerSum and ffuMaxCount parallel maxSum
	// (non-quiescent), extending the fast-path feasibility check to
	// every dimension.
	minStreamerSum int64
	maxStreamerSum int64
	ffuMaxCount    int

	// ffuResidents counts admitted tasks (any state) whose minimum
	// level requires the FFU; exclusivity caps this at one.
	ffuResidents int

	grants  GrantSet
	gen     uint64 // bumped each time commit installs a grant set
	pending bool   // a recomputed grant set awaits Scheduler pickup

	// pressure is the degradation fraction withheld from grant
	// computation (never from admission); see degrade.go.
	pressure     ticks.Frac
	degradations []DegradationEvent

	lastOp OpStats

	// scratch is recomputeGrants' working storage. Every slice is
	// reset where it is used and nothing in it outlives the call, so
	// one set per Manager serves every recompute; only the committed
	// GrantSet, immutable once installed, is built fresh.
	scratch struct {
		active  []*admitted
		members []policy.MemberID
		cands   []cand
		order   []int
	}

	tel rmTelemetry
}

// emptied returns buf emptied, with room for n elements. When it has
// to reallocate it leaves headroom: a Manager admits tasks one at a
// time, and scratch regrown at every admission would cost what it is
// there to save.
func emptied[T any](buf []T, n int) []T {
	if cap(buf) < n {
		return make([]T, 0, max(2*n, 4))
	}
	return buf[:0]
}

// Capacity describes the machine's non-CPU resources.
type Capacity struct {
	// StreamerMBps is total Data Streamer bandwidth. Zero means the
	// Streamer is not modelled (unlimited) — the default, so
	// CPU-only configurations behave exactly as before.
	StreamerMBps int64
}

// Unlimited reports whether the Streamer dimension is unmodelled.
func (c Capacity) Unlimited() bool { return c.StreamerMBps <= 0 }

// Fits reports whether a total demand of mbps fits the capacity.
func (c Capacity) Fits(mbps int64) bool {
	return c.Unlimited() || mbps <= c.StreamerMBps
}

// String renders the capacity for diagnostics.
func (c Capacity) String() string {
	if c.Unlimited() {
		return "streamer=unlimited"
	}
	return fmt.Sprintf("streamer=%dMBps", c.StreamerMBps)
}

// Config parameterises a Manager.
type Config struct {
	// Box is the Policy Box to consult in overload. If nil a fresh
	// empty Box is created (every conflict gets an invented policy).
	Box *policy.Box
	// InterruptReservePercent is the §5.2 interrupt reserve; the
	// paper's Figure 5 run uses 4.
	InterruptReservePercent int64

	// Streamer is the Data Streamer bandwidth capacity. The zero
	// value (no capacity set) leaves bandwidth unmodelled.
	Streamer Capacity
}

// New returns an empty Manager.
func New(cfg Config) *Manager {
	box := cfg.Box
	if box == nil {
		box = policy.NewBox()
	}
	if cfg.InterruptReservePercent < 0 || cfg.InterruptReservePercent >= 100 {
		panic("rm: interrupt reserve must be in [0,100)")
	}
	reserve := ticks.FracPercent(cfg.InterruptReservePercent)
	return &Manager{
		box:      box,
		hooks:    NopHooks{}, // until SetHooks
		reserve:  reserve,
		avail:    ticks.FracOne.Sub(reserve),
		streamer: cfg.Streamer,
		nextID:   1,
		minSum:   ticks.FracZero,
		maxSum:   ticks.FracZero,
		pressure: ticks.FracZero,
		// grants is the zero GrantSet, the empty set, until the first
		// commit installs one.
	}
}

// Box exposes the Policy Box (applications and the user may install
// policies through it; §7 notes it is accessible to all three).
func (m *Manager) Box() *policy.Box { return m.box }

// SetHooks installs the Scheduler notification sink after
// construction. The Manager and Scheduler reference each other, so
// one side must be wired late; internal/core builds the Manager
// first, then the Scheduler, then calls SetHooks.
func (m *Manager) SetHooks(h Hooks) {
	if h == nil {
		h = NopHooks{}
	}
	m.hooks = h
}

// Available reports the schedulable CPU fraction (1 - reserve).
func (m *Manager) Available() ticks.Frac { return m.avail }

// MinSum reports the current admission running sum.
func (m *Manager) MinSum() ticks.Frac { return m.minSum }

// RequestAdmittance runs admission control for t and, if the task is
// admitted, recomputes the grant set (§4.1). The returned ID
// identifies the task in all later calls. The admission test is O(1):
// the new task's minimum rate is added to the running sum and
// compared with the schedulable CPU.
func (m *Manager) RequestAdmittance(t *task.Task) (task.ID, error) {
	m.lastOp = OpStats{Op: "admit"}
	if err := t.Validate(); err != nil {
		return task.NoID, err
	}
	// The three tests read the caller's list; it is copied only once
	// the task is in.
	list := t.List
	newSum := m.minSum.Add(list.MinFrac())
	m.lastOp.AdmissionChecks = 1
	if !newSum.LessOrEqual(m.avail) {
		m.telAdmission(t.Name, task.NoID, false, "rejected: cpu")
		return task.NoID, &CPUDenialError{MinSum: newSum, Schedulable: m.avail}
	}
	newStreamer := m.minStreamerSum + list.Min().StreamerMBps
	if !m.streamer.Fits(newStreamer) {
		m.telAdmission(t.Name, task.NoID, false, "rejected: streamer")
		return task.NoID, &StreamerDenialError{MinMBps: newStreamer, CapacityMBps: m.streamer.StreamerMBps}
	}
	if list.MinNeedsFFU() && m.ffuResidents > 0 {
		m.telAdmission(t.Name, task.NoID, false, "rejected: ffu")
		return task.NoID, ErrFFUDenied
	}
	id := m.nextID
	m.nextID++
	list = list.Clone()
	a := &admitted{
		id:     id,
		t:      t,
		list:   list,
		fracs:  fracsOf(list),
		member: m.box.Register(t.Name),
		state:  task.Runnable,
	}
	if t.StartQuiescent {
		a.state = task.Quiescent
	}
	m.tasks = append(m.tasks, a)
	m.minSum = newSum
	m.minStreamerSum = newStreamer
	if list.MinNeedsFFU() {
		m.ffuResidents++
	}
	if a.state != task.Quiescent {
		m.addMaxSums(a)
	}
	m.recomputeGrants()
	m.telAdmission(t.Name, id, true, "accepted")
	return id, nil
}

// addMaxSums and subMaxSums maintain the non-quiescent fast-path
// feasibility sums across every resource dimension.
func (m *Manager) addMaxSums(a *admitted) {
	m.maxSum = m.maxSum.Add(a.fracs[0])
	m.maxStreamerSum += a.list.Max().StreamerMBps
	if a.list.Max().NeedsFFU {
		m.ffuMaxCount++
	}
}

func (m *Manager) subMaxSums(a *admitted) {
	m.maxSum = m.maxSum.Sub(a.fracs[0])
	m.maxStreamerSum -= a.list.Max().StreamerMBps
	if a.list.Max().NeedsFFU {
		m.ffuMaxCount--
	}
}

// Remove takes id out of the system (the task exited or was
// terminated by the user) and recomputes grants for the remainder.
func (m *Manager) Remove(id task.ID) error {
	i, ok := m.index(id)
	if !ok {
		return fmt.Errorf("%w: %d", ErrUnknownTask, id)
	}
	a := m.tasks[i]
	m.lastOp = OpStats{Op: "remove"}
	m.minSum = m.minSum.Sub(a.minFrac())
	m.minStreamerSum -= a.list.Min().StreamerMBps
	if a.list.MinNeedsFFU() {
		m.ffuResidents--
	}
	if a.state != task.Quiescent {
		m.subMaxSums(a)
	}
	m.tasks = slices.Delete(m.tasks, i, i+1)
	m.hooks.GrantRemoved(id)
	m.recomputeGrants()
	return nil
}

// SetQuiescent moves id into the quiescent state (§5.3): it stays in
// the admission sum — so it can never be denied when it wakes — but
// is dropped from the grant set, freeing its resources for others.
func (m *Manager) SetQuiescent(id task.ID) error {
	a, err := m.find(id)
	if err != nil {
		return err
	}
	if a.state == task.Quiescent {
		return nil
	}
	m.lastOp = OpStats{Op: "quiesce"}
	a.state = task.Quiescent
	m.subMaxSums(a)
	m.hooks.GrantRemoved(id)
	m.recomputeGrants()
	return nil
}

// Wake returns a quiescent task to the runnable state. It cannot
// fail: admission control already counted the task's minimum, so "at
// worst, all tasks receive their minimum resource list entry" (§5.3).
func (m *Manager) Wake(id task.ID) error {
	a, err := m.find(id)
	if err != nil {
		return err
	}
	if a.state != task.Quiescent {
		return nil
	}
	m.lastOp = OpStats{Op: "wake"}
	a.state = task.Runnable
	m.addMaxSums(a)
	m.recomputeGrants()
	return nil
}

// ChangeResourceList replaces id's resource list (§4.1: a new grant
// set is computed "when it changes its resource list"). The change is
// admitted only if the new minimum keeps the admission sum within the
// schedulable CPU.
func (m *Manager) ChangeResourceList(id task.ID, list task.ResourceList) error {
	a, err := m.find(id)
	if err != nil {
		return err
	}
	if err := list.Validate(); err != nil {
		return err
	}
	m.lastOp = OpStats{Op: "change-list"}
	newSum := m.minSum.Sub(a.minFrac()).Add(list.MinFrac())
	m.lastOp.AdmissionChecks = 1
	if !newSum.LessOrEqual(m.avail) {
		return fmt.Errorf("%w: new list's minimum does not fit", ErrAdmissionDenied)
	}
	newStreamer := m.minStreamerSum - a.list.Min().StreamerMBps + list.Min().StreamerMBps
	if !m.streamer.Fits(newStreamer) {
		return fmt.Errorf("%w: new list's minimum does not fit", ErrStreamerDenied)
	}
	residents := m.ffuResidents
	if a.list.MinNeedsFFU() {
		residents--
	}
	if list.MinNeedsFFU() {
		if residents > 0 {
			return ErrFFUDenied
		}
		residents++
	}
	if a.state != task.Quiescent {
		m.subMaxSums(a)
	}
	a.list = list.Clone()
	a.fracs = fracsOf(a.list)
	if a.state != task.Quiescent {
		m.addMaxSums(a)
	}
	m.minSum = newSum
	m.minStreamerSum = newStreamer
	m.ffuResidents = residents
	m.recomputeGrants()
	return nil
}

// index is id's position in the task table, and whether it is there.
func (m *Manager) index(id task.ID) (int, bool) {
	return slices.BinarySearchFunc(m.tasks, id, func(a *admitted, id task.ID) int { return cmp.Compare(a.id, id) })
}

// find returns id's record, or ErrUnknownTask naming the ID.
func (m *Manager) find(id task.ID) (*admitted, error) {
	if i, ok := m.index(id); ok {
		return m.tasks[i], nil
	}
	return nil, fmt.Errorf("%w: %d", ErrUnknownTask, id)
}

// Has reports whether id is admitted: known to the Manager from
// RequestAdmittance until Remove. Unlike State it builds no error for
// an unknown id, so it is the probe for callers that expect misses.
func (m *Manager) Has(id task.ID) bool {
	_, ok := m.index(id)
	return ok
}

// State reports the admission-visible state of id.
func (m *Manager) State(id task.ID) (task.State, error) {
	a, err := m.find(id)
	if err != nil {
		return 0, err
	}
	return a.state, nil
}

// TaskByID returns the descriptor admitted under id.
func (m *Manager) TaskByID(id task.ID) (*task.Task, error) {
	a, err := m.find(id)
	if err != nil {
		return nil, err
	}
	return a.t, nil
}

// ListOf returns the admitted resource list of id.
func (m *Manager) ListOf(id task.ID) (task.ResourceList, error) {
	a, err := m.find(id)
	if err != nil {
		return nil, err
	}
	return a.list.Clone(), nil
}

// Reevaluate recomputes the grant set against the current Policy Box
// contents. §7 leaves open "when is it reasonable to change the
// Policy Box, and when should the modification(s) occur to avoid
// affecting current scheduling guarantees"; this reproduction's
// answer: any time — the new grants propagate exactly like those from
// an admission (decreases at each task's next period, increases at
// unallocated time), so no committed period is ever disturbed.
func (m *Manager) Reevaluate() {
	m.lastOp = OpStats{Op: "reevaluate"}
	m.recomputeGrants()
}

// Grants returns the committed grant set (a copy).
func (m *Manager) Grants() GrantSet { return m.grants.Clone() }

// Committed returns the committed grant set itself, for observers that
// read it on a recurring path (the invariant Checker re-sums it after
// every commit). The set is immutable by contract — recomputation
// installs a freshly built one — and the caller must not modify it;
// use Grants for a copy to keep.
func (m *Manager) Committed() GrantSet { return m.grants }

// GrantGeneration counts committed grant-set installs. Observers that
// derive values from the committed set (e.g. the invariant Checker's
// fraction sum) can skip recomputation while the generation is
// unchanged, since committed sets are immutable between commits.
func (m *Manager) GrantGeneration() uint64 { return m.gen }

// HasPending reports whether a recomputed grant set awaits pickup.
func (m *Manager) HasPending() bool { return m.pending }

// CollectGrants is the Scheduler's §4.2 callback: "the Scheduler
// makes a callback to the Resource Manager to get the new grant
// information" when it has unallocated time. It returns the current
// grant set and clears the pending flag.
//
// The returned set is the committed set itself, not a copy: committed
// sets are immutable (recomputation always installs a freshly built
// one, see commit), and the Scheduler only reads the set, so the
// unallocated-time pickup path avoids a per-call clone. External
// callers get the defensive copy via Grants.
func (m *Manager) CollectGrants() GrantSet {
	m.pending = false
	return m.grants
}

// NTasks reports the number of admitted tasks (all states).
func (m *Manager) NTasks() int { return len(m.tasks) }

// TaskIDs returns every admitted task ID (all states), ascending.
func (m *Manager) TaskIDs() []task.ID {
	if len(m.tasks) == 0 {
		return nil
	}
	out := make([]task.ID, len(m.tasks))
	for i, a := range m.tasks {
		out[i] = a.id
	}
	return out
}

// nonQuiescent returns admitted non-quiescent records in ID order —
// the task table's own order, filtered. The slice is the Manager's
// scratch, valid until the next call.
func (m *Manager) nonQuiescent() []*admitted {
	out := emptied(m.scratch.active, len(m.tasks))
	for _, a := range m.tasks {
		if a.state != task.Quiescent {
			out = append(out, a)
		}
	}
	m.scratch.active = out
	return out
}
