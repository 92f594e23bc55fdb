package baseline

import (
	"fmt"

	"repro/internal/sim"
	"repro/internal/task"
	"repro/internal/ticks"
)

// Rialto models the §3.4 comparator from Microsoft Research: CPU
// reservations combined with per-deadline time constraints. An
// application with deadline-critical work brackets it with a
// constraint request — BeginConstraint(deadline, estimate) — which
// the system accepts or refuses after a feasibility analysis.
// Accepted constraints run earliest-deadline ahead of reservation
// time.
//
// The paper's critique (§3.4/§3.5) is structural, and reproduces
// here: a constraint is requested when the work *arrives*, so the
// refusal — the de-facto policy decision — happens when the deadline
// is already near ("the system … make[s] policy decisions after a
// deadline may have already been missed"). Which requests get refused
// is decided by arrival order against the instantaneous free
// capacity: an accident of timing, not a user policy. In the MPEG
// experiment the refusals land on whatever frame was unlucky,
// including I frames.
type Rialto struct {
	loop
	// sum is the reserved CPU fraction the feasibility analysis
	// subtracts from every window, held exactly.
	sum  ticks.Frac
	cons []*constraint
}

type constraint struct {
	owner    *btask
	deadline ticks.Ticks
	remain   ticks.Ticks
	body     task.Body
	done     bool
	missed   bool
}

// NewRialto builds the constraint scheduler.
func NewRialto(k *sim.Kernel) *Rialto {
	return &Rialto{loop: loop{k: k}, sum: ticks.FracZero}
}

// AddTask registers a task, optionally with a CPU reservation
// (budget per period). Pass budget 0 for constraint-only tasks.
func (r *Rialto) AddTask(name string, period, budget ticks.Ticks) error {
	if period <= 0 || budget < 0 || budget > period {
		return fmt.Errorf("baseline: bad reservation %v/%v", budget, period)
	}
	r.sum = r.sum.Add(ticks.FracOf(budget, period))
	r.add(&btask{name: name, period: period, budget: budget})
	return nil
}

// BeginConstraint asks for estimate ticks of CPU before deadline,
// executing body when scheduled. It returns false — a refusal — when
// the feasibility analysis finds insufficient slack: free capacity
// between now and the deadline, minus CPU promised to already
// accepted constraints in that window.
func (r *Rialto) BeginConstraint(name string, deadline, estimate ticks.Ticks, body task.Body) bool {
	owner := r.byName(name)
	if owner == nil || estimate <= 0 {
		return false
	}
	now := r.k.Now()
	if deadline <= now {
		return false
	}
	window := deadline - now
	free := float64(window) * (1 - r.sum.Float())
	var promised ticks.Ticks
	for _, c := range r.cons {
		if !c.done && c.deadline <= deadline {
			promised += c.remain
		}
	}
	if float64(promised+estimate) > free {
		return false
	}
	r.cons = append(r.cons, &constraint{
		owner: owner, deadline: deadline, remain: estimate, body: body,
	})
	return true
}

// RunUntil drives the schedule to limit: accepted constraints run
// earliest-deadline first; reservation time fills the gaps.
func (r *Rialto) RunUntil(limit ticks.Ticks) {
	for r.k.Now() < limit {
		now := r.k.Now()
		r.k.RunUntil(now)
		r.roll(now, r)
		r.expireConstraints(now)
		// A live constraint's deadline is a boundary too.
		next := r.nextBoundary(limit)
		for _, c := range r.cons {
			if !c.done && !c.missed && c.deadline < next {
				next = c.deadline
			}
		}

		if c := r.nextConstraint(); c != nil {
			span := sliceWithin(c.remain, next-now)
			res := c.body.Run(task.RunContext{Now: now, Span: span})
			used := clampUsed(res.Used, span)
			if used == 0 {
				used = span // constraints model dedicated work
			}
			r.spend(c.owner, used)
			c.remain -= used
			if c.remain <= 0 {
				c.done = true
				c.owner.stats.Completed++
			}
			continue
		}

		// Reservation time: EDF over tasks with budget remaining,
		// which use whatever they are offered.
		cur := earliest(r.tasks, func(b *btask) bool { return b.remain > 0 })
		if cur == nil {
			if !r.idle(next - now) {
				return
			}
			continue
		}
		span := sliceWithin(cur.remain, next-now)
		r.spend(cur, span)
		cur.remain -= span
	}
}

// closePeriod: a reservation period closes unscored — Completed and
// MissedPeriods count constraints, not periods.
func (r *Rialto) closePeriod(*btask) {}

func (r *Rialto) nextConstraint() *constraint {
	var best *constraint
	for _, c := range r.cons {
		if c.done || c.missed {
			continue
		}
		if best == nil || c.deadline < best.deadline {
			best = c
		}
	}
	return best
}

func (r *Rialto) expireConstraints(now ticks.Ticks) {
	for _, c := range r.cons {
		if !c.done && !c.missed && c.deadline <= now {
			c.missed = true
			c.owner.stats.MissedPeriods++
		}
	}
	// Compact occasionally.
	if len(r.cons) > 64 {
		live := r.cons[:0]
		for _, c := range r.cons {
			if !c.done && !c.missed {
				live = append(live, c)
			}
		}
		r.cons = live
	}
}
