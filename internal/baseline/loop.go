//rd:hotpath
package baseline

import (
	"math"

	"repro/internal/sim"
	"repro/internal/task"
	"repro/internal/ticks"
)

// never is the watermark of a loop with no task: no boundary ahead.
const never = ticks.Ticks(math.MaxInt64)

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
}

// beginPeriod starts b's next period at start. It is the only place a
// deadline changes, which is what keeps loop.nextRoll exact.
func (b *btask) beginPeriod(start ticks.Ticks) {
	b.deadline = start + b.period
	b.newPd = true
	b.parked = false
	b.completedPd = false
	b.usedPd = 0
	b.remain = b.budget
	b.stats.Periods++
}

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
	// nextRoll is the earliest deadline in the table, as of the last
	// roll that walked it: before it, roll has nothing to do and is the
	// next boundary nextBoundary reports. add lowers it and roll
	// recomputes it when it walks. Deadlines change only in beginPeriod,
	// which only those two call, so it is exact. The zero value makes
	// the first roll walk.
	nextRoll ticks.Ticks
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
	c.nextRoll = min(c.nextRoll, b.deadline)
	c.tasks = append(c.tasks, b)
	if c.onWake != nil {
		c.onWake(b)
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
// clamped to the global virtual time (wake reset). A pass before
// nextRoll has no boundary to cross and does not walk the tasks.
func (c *loop) roll(now ticks.Ticks, p picker) {
	if now < c.nextRoll {
		return
	}
	c.nextRoll = never
	for _, b := range c.tasks {
		wasParked := b.parked
		rolled := false
		for b.deadline <= now {
			p.closePeriod(b)
			b.beginPeriod(b.deadline)
			rolled = true
		}
		c.nextRoll = min(c.nextRoll, b.deadline)
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
// limit: a period boundary or a kernel event. It reads the watermark
// the preceding roll left, so it is called after roll.
func (c *loop) nextBoundary(limit ticks.Ticks) ticks.Ticks {
	next := min(limit, c.nextRoll)
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
// boundary/event, run the body, account, charge, park. The body's
// context is a literal in the call, so it travels in registers
// (task.RunContext).
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
		newPd := cur.newPd
		cur.newPd = false
		res := cur.body.Run(task.RunContext{
			Now:            now,
			Span:           span,
			PeriodStart:    cur.deadline - cur.period,
			NewPeriod:      newPd,
			UsedThisPeriod: cur.usedPd,
		})
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
