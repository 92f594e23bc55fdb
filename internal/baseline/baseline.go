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
//     weighted virtual runtime. CFS is FairShare's usage-metered
//     charge — virtual runtime is its pass — with a latency-split
//     slice: a target latency divided among the runnable tasks by
//     weight.
//
//   - Notifier (notify.go) and Rialto (rialto.go) model the two
//     designs §3.5 argues against by name: failure notification to
//     whoever asked last, and per-deadline constraints refused at
//     arrival time.
//
// All of them reuse task.Body, so the identical MPEG/3D/audio models
// run under every scheduler — and all of them spend time through one
// loop (loop.runUntil, in loop.go): fire due events, roll period
// boundaries, find the next boundary, pick a task, idle to the
// boundary if there is none, otherwise offer the task a slice bounded
// by that boundary, run its body, account the CPU and park the task if
// it yielded, blocked or exited. A scheduler is a picker on that loop
// and supplies only what makes it that scheduler: which task runs next
// (pick), how long a slice it is offered (slice), what a slice costs it
// (charge), and whether a period that just closed counts as served
// (closePeriod). FairShare, Lottery, Stride, CFS, Reserves and
// Notifier are pickers. Rialto is not: its constraints are not
// periodic tasks — they arrive, are refused or accepted, and run ahead
// of every reservation — so making the loop choose between two classes
// of work would have it branch on its caller. Rialto keeps that
// two-class selection and takes everything else (roll, idle, spend,
// Stats) from the loop.
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
