// Package baseline implements the comparator schedulers of §3.4 on
// the same simulation kernel and task bodies as the Resource
// Distributor, so the paper's qualitative claims (§3.5) can be
// regenerated as experiments:
//
//   - FairShare models SMART's overload behaviour: proportional
//     (stride) scheduling with no admission control and no notion of
//     discrete service levels. In underload everything meets its
//     deadlines; in overload every task gets a fair fraction, which
//     for discrete multimedia work means partially decoded frames —
//     including lost I frames — selected by accidents of timing.
//
//   - Reserves models CMU's Processor Capacity Reserves: per-task
//     worst-case CPU reservations with guaranteed admission, but no
//     load-shedding integration and no redistribution of reserved-
//     but-unused time to tasks that could use more. Variable-demand
//     tasks must reserve for their worst case, so "the full processor
//     may not be used".
//
//   - Lottery, Stride, and CFS (propshare.go) extend the family with
//     the classic proportional-share schedulers the literature would
//     reach for today: randomized tickets, deterministic strides, and
//     weighted virtual runtime.
//
//   - Notifier (notify.go) and Rialto (rialto.go) model the two
//     designs §3.5 argues against by name: failure notification to
//     whoever asked last, and per-deadline constraints refused at
//     arrival time.
//
// All of them reuse task.Body, so the identical MPEG/3D/audio models
// run under every scheduler — and all of them spend time through one
// loop (loop.runUntil): fire due events, roll period boundaries, find
// the next boundary, pick a task, idle to the boundary if there is
// none, otherwise offer the task a slice bounded by that boundary, run
// its body, account the CPU and park the task if it yielded, blocked
// or exited. A scheduler is a picker on that loop and supplies only
// what makes it that scheduler: which task runs next (pick), how long
// a slice it is offered (slice), what a slice costs it (charge), what
// happens to it afterwards (dispatched), and whether a period that
// just closed counts as served (closePeriod). FairShare, Lottery,
// Stride, CFS, Reserves and Notifier are pickers. Rialto is not: its
// constraints are not periodic tasks — they arrive, are refused or
// accepted, and run ahead of every reservation — so making the loop
// choose between two classes of work would have it branch on its
// caller. Rialto keeps that two-class selection and takes everything
// else (roll, nextBoundary, idle, spend, Stats) from the loop.
package baseline

import (
	"errors"
	"fmt"

	"repro/internal/sim"
	"repro/internal/task"
	"repro/internal/telemetry"
	"repro/internal/ticks"
)

// Stats is per-task accounting common to the baselines.
type Stats struct {
	Periods       int64
	Completed     int64 // periods whose work finished before the boundary
	MissedPeriods int64 // periods that ended with work outstanding
	UsedTicks     ticks.Ticks
}

// strideScale is the fixed-point scale of pass/vruntime arithmetic:
// pass advances in units of strideScale·ticks per weight. The scale
// only has to be large enough that one tick of CPU moves every pass,
// whatever the weight.
const strideScale = 1 << 20

// strideCore is the shared pass/vruntime state of the proportional-
// share schedulers: a fixed-point accumulator whose division
// remainder is carried exactly between charges, so no systematic
// bias toward high-weight tasks accumulates (the classic truncation
// bug: `pass += used*scale/weight` drops up to weight-1 units every
// slice, always in the same direction).
type strideCore struct {
	pass ticks.Ticks // current pass / virtual runtime, in scale units
	rem  int64       // carried remainder of the last division, < weight
}

// charge advances pass by num/weight, carrying the remainder exactly.
// num is in strideScale-weighted units: used*strideScale for usage-
// metered schedulers (FairShare, CFS), strideScale per selection for
// classic stride.
func (s *strideCore) charge(num, weight int64) {
	num += s.rem
	s.pass += ticks.Ticks(num / weight)
	s.rem = num % weight
}

// wake clamps a waking task's pass up to the runnable minimum (the
// scheduler's global virtual time). Without the clamp a long-parked
// task returns with a stale, far-behind pass and monopolizes the CPU
// until it catches up — the classic stride/CFS sleeper bug.
func (s *strideCore) wake(vmin ticks.Ticks) {
	if s.pass < vmin {
		s.pass = vmin
		s.rem = 0
	}
}

// btask is the baseline schedulers' per-task record.
type btask struct {
	name   string
	period ticks.Ticks
	body   task.Body
	weight int64       // FairShare weight / Stride+Lottery tickets / CFS weight
	budget ticks.Ticks // Reserves, Rialto: per-period reservation
	// Notifier: the shed menu of per-period CPU demands, from maximum
	// (index 0) to minimum, and the level currently demanded.
	levels []ticks.Ticks
	level  int

	deadline ticks.Ticks
	newPd    bool
	// parked: the task yielded, blocked, or exited and will not run
	// again until the next period boundary. completedPd records
	// whether the period's work actually finished — a blocked-but-
	// unfinished frame parks without completing, and roll must count
	// it as a miss, not a completion.
	parked      bool
	completedPd bool
	usedPd      ticks.Ticks
	sc          strideCore  // pass/vruntime state (proportional family)
	remain      ticks.Ticks // Reserves, Rialto: budget left this period
	queued      bool        // CFS: task is in the ready queue
	stats       Stats
	everRan     bool
}

func (b *btask) beginPeriod(start ticks.Ticks) {
	b.deadline = start + b.period
	b.newPd = true
	b.parked = false
	b.completedPd = false
	b.usedPd = 0
	b.remain = b.budget
	b.stats.Periods++
}

func (b *btask) ctx(now, span ticks.Ticks) task.RunContext {
	c := task.RunContext{
		Now:            now,
		Span:           span,
		PeriodStart:    b.deadline - b.period,
		UsedThisPeriod: b.usedPd,
		NewPeriod:      b.newPd,
	}
	b.newPd = false
	b.everRan = true
	return c
}

// --- the one dispatch loop ---

// loopTelemetry holds the loop's pre-registered instrument handles,
// mirroring sched's wiring seam: the zero value (all nil) records
// nothing, so the run loop instruments unconditionally.
type loopTelemetry struct {
	slices    *telemetry.Counter
	idle      *telemetry.Counter
	completed *telemetry.Counter
	missed    *telemetry.Counter
	draws     *telemetry.Counter // lottery only

	sliceTicks *telemetry.Histogram
}

// sliceBuckets matches sched.dispatch.slice geometry: 1 ms buckets
// spanning 0-32 ms.
const sliceBuckets = 32

// loop is the machinery every comparator shares: the task table,
// period bookkeeping, the global virtual time used to clamp waking
// tasks, and the run loop. Its own picker methods are the plain
// quantum round — lowest pass first, one quantum a slice, nothing
// charged, a period served when its body said so — and a scheduler
// embeds the loop and overrides the ones that make it different.
type loop struct {
	k       *sim.Kernel
	quantum ticks.Ticks // the default slice; unused by the EDF pickers
	tasks   []*btask
	// vmin is the scheduler's global virtual time: the highest pass
	// ever dispatched. Waking tasks are clamped up to it so a
	// long-parked task cannot return with a stale, far-behind pass and
	// monopolize the CPU (the stride/CFS sleeper bug). It stays zero
	// under a picker that never charges a pass.
	vmin ticks.Ticks
	// onWake, when set, is told about every task that is runnable
	// after a period rollover (CFS uses it to feed its ready queue).
	onWake func(*btask)
	tel    loopTelemetry
}

// picker is what a concrete scheduler adds on top of the loop.
type picker interface {
	// pick selects the next runnable task, or nil when there is none.
	pick() *btask
	// slice sizes the time slice offered to cur, before the run loop
	// bounds it by the next period boundary, kernel event and horizon.
	slice(cur *btask) ticks.Ticks
	// charge bills cur for used ticks of CPU: virtual time for the
	// proportional family, reservation budget for Reserves.
	charge(cur *btask, used ticks.Ticks)
	// dispatched is called after cur's slice has been folded in (CFS
	// re-queues still-runnable tasks here).
	dispatched(cur *btask)
	// closePeriod scores the period of b that just ended, through
	// loop.score, before the next one begins.
	closePeriod(b *btask)
}

func (c *loop) pick() *btask               { return minPass(c.tasks) }
func (c *loop) slice(*btask) ticks.Ticks   { return c.quantum }
func (c *loop) charge(*btask, ticks.Ticks) {}
func (c *loop) dispatched(*btask)          {}
func (c *loop) closePeriod(b *btask)       { c.score(b, b.completedPd) }

// add begins b's first period now and enters it in the task table.
func (c *loop) add(b *btask) {
	if b.weight <= 0 {
		b.weight = 1
	}
	b.beginPeriod(c.k.Now())
	c.tasks = append(c.tasks, b)
	if c.onWake != nil {
		c.onWake(b)
	}
}

// Stats reports accounting for a task by name.
func (c *loop) Stats(name string) (Stats, bool) {
	if b := c.byName(name); b != nil {
		return b.stats, true
	}
	return Stats{}, false
}

func (c *loop) byName(name string) *btask {
	for _, b := range c.tasks {
		if b.name == name {
			return b
		}
	}
	return nil
}

// Utilization reports busy CPU as a fraction of elapsed time.
func (c *loop) Utilization() float64 { return c.k.Stats().Utilization() }

// Instrument pre-registers the scheduler's instruments in t's
// registry — the cold half of the telemetry contract. A nil Set
// leaves every handle nil and the scheduler silent.
func (c *loop) Instrument(t *telemetry.Set) {
	r := t.Reg()
	c.tel = loopTelemetry{
		slices:    r.Counter("baseline.dispatch.slices"),
		idle:      r.Counter("baseline.dispatch.idle"),
		completed: r.Counter("baseline.period.completed"),
		missed:    r.Counter("baseline.period.missed"),
		draws:     r.Counter("baseline.lottery.draws"),
		sliceTicks: r.Histogram("baseline.dispatch.slice",
			int64(ticks.PerMillisecond), sliceBuckets),
	}
}

// score books one finished period as completed or missed.
func (c *loop) score(b *btask, served bool) {
	if served {
		b.stats.Completed++
		c.tel.completed.Inc()
	} else {
		b.stats.MissedPeriods++
		c.tel.missed.Inc()
	}
}

// roll advances period boundaries up to now, letting the picker score
// each finished period. Tasks runnable after rolling get their pass
// clamped to the global virtual time (wake reset).
func (c *loop) roll(now ticks.Ticks, p picker) {
	for _, b := range c.tasks {
		wasParked := b.parked
		rolled := false
		for b.deadline <= now {
			p.closePeriod(b)
			b.beginPeriod(b.deadline)
			rolled = true
		}
		// Only a parked→runnable transition is a wake: its pass is
		// clamped and (for CFS) it re-enters the ready queue. A task
		// that stayed runnable across the boundary is already queued,
		// and mutating its key inside the heap would corrupt it.
		if rolled && wasParked {
			b.sc.wake(c.vmin)
			if c.onWake != nil {
				c.onWake(b)
			}
		}
	}
}

// nextBoundary is the earliest instant the schedule can change before
// limit: a period boundary or a kernel event.
func (c *loop) nextBoundary(limit ticks.Ticks) ticks.Ticks {
	next := limit
	for _, b := range c.tasks {
		if b.deadline < next {
			next = b.deadline
		}
	}
	if at, ok := c.k.NextEventTime(); ok && at < next {
		next = at
	}
	return next
}

// idle leaves the CPU idle for d ticks; d <= 0 means nothing lies
// ahead of now and reports false so the run loop ends.
func (c *loop) idle(d ticks.Ticks) bool {
	if d <= 0 {
		return false
	}
	c.k.Idle(d)
	c.tel.idle.Inc()
	return true
}

// sliceWithin bounds an offered slice by the room left before the next
// boundary. Periods are rolled and due events fired before a slice is
// sized, so an empty one is a bookkeeping bug that would otherwise
// hang the run loop.
func sliceWithin(span, room ticks.Ticks) ticks.Ticks {
	span = min(span, room)
	if span <= 0 {
		panic("baseline: dispatch slice of zero length")
	}
	return span
}

// spend is the one step that puts busy time on the clock: b occupies
// the CPU for used ticks.
func (c *loop) spend(b *btask, used ticks.Ticks) {
	c.k.Busy(used)
	b.usedPd += used
	b.stats.UsedTicks += used
	c.tel.slices.Inc()
	c.tel.sliceTicks.Observe(int64(used))
}

// runUntil is the shared dispatch loop: roll periods, let the
// concrete scheduler pick and size a slice, bound it by the next
// boundary/event, run the body, account, charge, park.
func (c *loop) runUntil(limit ticks.Ticks, p picker) {
	for c.k.Now() < limit {
		now := c.k.Now()
		c.k.RunUntil(now)
		c.roll(now, p)
		next := c.nextBoundary(limit)
		cur := p.pick()
		if cur == nil {
			if !c.idle(next - now) {
				return
			}
			continue
		}
		if cur.sc.pass > c.vmin {
			c.vmin = cur.sc.pass
		}
		span := sliceWithin(p.slice(cur), next-now)
		res := cur.body.Run(cur.ctx(now, span))
		used := clampUsed(res.Used, span)
		c.spend(cur, used)
		p.charge(cur, used)
		applyOp(cur, res)
		p.dispatched(cur)
	}
}

// minPass returns the runnable task with the lowest pass, breaking
// ties by name for determinism.
func minPass(tasks []*btask) *btask {
	var best *btask
	for _, b := range tasks {
		if b.parked {
			continue
		}
		if best == nil || b.sc.pass < best.sc.pass ||
			(b.sc.pass == best.sc.pass && b.name < best.name) {
			best = b
		}
	}
	return best
}

// earliest returns the ready task with the earliest deadline, breaking
// ties by name for determinism — the EDF pick of Reserves, Notifier
// and Rialto's reservation class.
func earliest(tasks []*btask, ready func(*btask) bool) *btask {
	var best *btask
	for _, b := range tasks {
		if !ready(b) {
			continue
		}
		if best == nil || b.deadline < best.deadline ||
			(b.deadline == best.deadline && b.name < best.name) {
			best = b
		}
	}
	return best
}

func clampUsed(used, span ticks.Ticks) ticks.Ticks {
	return max(0, min(used, span))
}

// applyOp folds a body's RunResult into the task record. Yield,
// block, and exit all park the task until its next period boundary —
// the baselines have no overtime machinery — but only res.Completed
// marks the period's work as done. A task that blocks mid-frame
// parks *without* completing, and closePeriod scores that period as
// missed.
func applyOp(b *btask, res task.RunResult) {
	if res.Completed {
		b.completedPd = true
	}
	switch res.Op {
	case task.OpYield, task.OpBlock, task.OpExit:
		b.parked = true
	}
}

// --- Reserves (Processor Capacity Reserves-like) ---

// Reserves is an EDF scheduler with hard per-period CPU reservations:
// guaranteed admission against the reservation sum, strict
// enforcement, and no redistribution of unused reserve.
type Reserves struct {
	loop
	sum ticks.Frac
}

// NewReserves builds a reservation scheduler.
func NewReserves(k *sim.Kernel) *Reserves {
	return &Reserves{loop: loop{k: k}, sum: ticks.FracZero}
}

// ErrReserveDenied is returned when the reservation sum would exceed
// the machine.
var ErrReserveDenied = errors.New("baseline: reservation denied")

// Reserve admits a task with a per-period CPU reservation. Because
// there is no load-shedding menu, callers must reserve their
// worst-case demand — the over-reservation the paper criticises.
func (r *Reserves) Reserve(name string, period, budget ticks.Ticks, body task.Body) error {
	if budget <= 0 || period <= 0 || budget > period {
		return fmt.Errorf("baseline: bad reservation %v/%v", budget, period)
	}
	ns := r.sum.Add(ticks.FracOf(budget, period))
	if !ns.LessOrEqual(ticks.FracOne) {
		return fmt.Errorf("%w: sum would be %.3f", ErrReserveDenied, ns.Float())
	}
	r.sum = ns
	r.add(&btask{name: name, period: period, body: body, budget: budget})
	return nil
}

// RunUntil drives the reservation schedule to limit.
func (r *Reserves) RunUntil(limit ticks.Ticks) { r.runUntil(limit, r) }

// pick is EDF over tasks with reservation left. The loop ends every
// slice at the next period boundary, so an earlier deadline that
// begins there preempts by being picked.
func (r *Reserves) pick() *btask {
	return earliest(r.tasks, func(b *btask) bool { return !b.parked })
}

func (r *Reserves) slice(cur *btask) ticks.Ticks { return cur.remain }

func (r *Reserves) charge(cur *btask, used ticks.Ticks) {
	cur.remain -= used
	if cur.remain <= 0 {
		// Reservation exhausted: parked until the next period.
		// Unused CPU is NOT redistributed.
		cur.parked = true
	}
}

// closePeriod: a fully consumed budget counts as served — under
// Reserves the task may still have had work to do, but the reservation
// model calls that "served". Budget left with work outstanding at the
// boundary is a blocked-but-unfinished frame (or an EDF anomaly, which
// feasible reservations should not produce): a miss.
func (r *Reserves) closePeriod(b *btask) { r.score(b, b.completedPd || b.remain <= 0) }
