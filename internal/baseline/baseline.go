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
// All of them reuse task.Body, so the identical MPEG/3D/audio models
// run under every scheduler.
package baseline

import (
	"errors"
	"fmt"
	"sort"

	"repro/internal/sim"
	"repro/internal/task"
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
	budget ticks.Ticks // Reserves per-period budget

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
	remain      ticks.Ticks // Reserves: budget left this period
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

// --- Reserves (Processor Capacity Reserves-like) ---

// Reserves is an EDF scheduler with hard per-period CPU reservations:
// guaranteed admission against the reservation sum, strict
// enforcement, and no redistribution of unused reserve.
type Reserves struct {
	k     *sim.Kernel
	tasks []*btask
	sum   ticks.Frac
}

// NewReserves builds a reservation scheduler.
func NewReserves(k *sim.Kernel) *Reserves {
	return &Reserves{k: k, sum: ticks.FracZero}
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
	b := &btask{name: name, period: period, body: body, budget: budget}
	b.beginPeriod(r.k.Now())
	r.tasks = append(r.tasks, b)
	return nil
}

// Stats reports accounting for a task by name.
func (r *Reserves) Stats(name string) (Stats, bool) {
	for _, b := range r.tasks {
		if b.name == name {
			return b.stats, true
		}
	}
	return Stats{}, false
}

// Utilization reports busy CPU as a fraction of elapsed time.
func (r *Reserves) Utilization() float64 { return r.k.Stats().Utilization() }

// RunUntil drives the reservation schedule to limit.
func (r *Reserves) RunUntil(limit ticks.Ticks) {
	for r.k.Now() < limit {
		now := r.k.Now()
		r.k.RunUntil(now)
		r.roll(now)
		cur := r.pick()
		if cur == nil {
			next := r.nextBoundary(limit)
			d := next - now
			if d <= 0 {
				return
			}
			r.k.Advance(d)
			r.k.AccountIdle(d)
			continue
		}
		span := cur.remain
		// Preempt at any earlier-deadline boundary.
		for _, b := range r.tasks {
			if b != cur && b.deadline < now+span && b.deadline+b.period < cur.deadline {
				span = b.deadline - now
			}
		}
		if cur.deadline < now+span {
			span = cur.deadline - now
		}
		if at, ok := r.k.NextEventTime(); ok && at-now < span {
			span = at - now
		}
		if span <= 0 {
			panic("baseline: zero reserves slice")
		}
		res := cur.body.Run(cur.ctx(now, span))
		used := clampUsed(res.Used, span)
		r.k.Advance(used)
		r.k.AccountBusy(used)
		cur.usedPd += used
		cur.remain -= used
		cur.stats.UsedTicks += used
		applyOp(cur, res)
		if cur.remain <= 0 {
			// Reservation exhausted: parked until the next period.
			// Unused CPU is NOT redistributed.
			cur.parked = true
		}
	}
}

func (r *Reserves) pick() *btask {
	ready := make([]*btask, 0, len(r.tasks))
	for _, b := range r.tasks {
		if !b.parked && b.remain > 0 {
			ready = append(ready, b)
		}
	}
	if len(ready) == 0 {
		return nil
	}
	sort.Slice(ready, func(i, j int) bool {
		if ready[i].deadline != ready[j].deadline {
			return ready[i].deadline < ready[j].deadline
		}
		return ready[i].name < ready[j].name
	})
	return ready[0]
}

func (r *Reserves) roll(now ticks.Ticks) {
	for _, b := range r.tasks {
		for b.deadline <= now {
			switch {
			case b.completedPd:
				// Work finished within the reservation.
				b.stats.Completed++
			case b.remain <= 0:
				// Budget fully consumed: under Reserves the task may
				// still have had work to do, but the reservation
				// model calls that "served".
				b.stats.Completed++
			default:
				// Budget left but work outstanding at the boundary: a
				// blocked-but-unfinished frame (or an EDF anomaly,
				// which feasible reservations should not produce).
				b.stats.MissedPeriods++
			}
			b.beginPeriod(b.deadline)
		}
	}
}

func (r *Reserves) nextBoundary(limit ticks.Ticks) ticks.Ticks {
	next := limit
	for _, b := range r.tasks {
		if b.deadline < next {
			next = b.deadline
		}
	}
	if at, ok := r.k.NextEventTime(); ok && at < next {
		next = at
	}
	return next
}

// --- shared helpers ---

func clampUsed(used, span ticks.Ticks) ticks.Ticks {
	if used < 0 {
		return 0
	}
	if used > span {
		return span
	}
	return used
}

// applyOp folds a body's RunResult into the task record. Yield,
// block, and exit all park the task until its next period boundary —
// the baselines have no overtime machinery — but only res.Completed
// marks the period's work as done. A task that blocks mid-frame
// parks *without* completing, and roll scores that period as missed.
func applyOp(b *btask, res task.RunResult) {
	if res.Completed {
		b.completedPd = true
	}
	switch res.Op {
	case task.OpYield, task.OpBlock, task.OpExit:
		b.parked = true
	}
}
