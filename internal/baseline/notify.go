package baseline

import (
	"repro/internal/sim"
	"repro/internal/task"
	"repro/internal/ticks"
)

// Notifier models the §3.5 alternative the paper argues against: a
// system that admits everyone and, when overload appears, sends a
// failure notification to the application that happened to request
// resources last — "selected by an accident of timing" — asking it to
// shed. The paper lists three problems, all reproduced here:
//
//  1. "By the time the response returns from the third party, the
//     deadline may no longer be reachable": the notification takes
//     Delay to arrive, and the system runs overloaded meanwhile.
//  2. Nothing tells any *other* task to shed: only the latest
//     requester is notified, even if the user would prefer another
//     task to degrade.
//  3. The notified task "might either fail in the current frame or
//     not degrade its service until later": shedding applies from
//     the period after the notification lands.
//
// Scheduling between boundaries is EDF without grant enforcement;
// tasks demand the CPU of their current level each period. On the
// shared loop that is a picker whose tasks always use what they are
// offered: the slice is the demand still outstanding, nothing is
// charged, and a period is served when the demand was met.
type Notifier struct {
	loop
	delay ticks.Ticks
}

// demand is the current per-period CPU requirement.
func (b *btask) demand() ticks.Ticks { return b.levels[b.level] }

// NewNotifier builds the notification-based system. delay is the
// third-party round-trip before a shed notification takes effect.
func NewNotifier(k *sim.Kernel, delay ticks.Ticks) *Notifier {
	if delay <= 0 {
		delay = 20 * ticks.PerMillisecond
	}
	return &Notifier{loop: loop{k: k}, delay: delay}
}

// Add admits a task unconditionally (there is no admission control in
// this model) at its maximum level. If the system is now overloaded,
// the *newly added* task — the accident of timing — is notified to
// shed; the notification lands after the configured delay and takes
// effect at the task's next period boundary after that.
func (nf *Notifier) Add(name string, period ticks.Ticks, levels []ticks.Ticks) {
	target := &btask{name: name, period: period, levels: levels, body: task.BusySilent()}
	nf.add(target)
	if nf.totalDemand() > 1.0 {
		// Whoever asked last sheds, to the minimum; applies from the
		// next period (problem 3: "not degrade its service until later").
		nf.k.After(nf.delay, func() { target.level = len(target.levels) - 1 })
	}
}

// totalDemand sums current-level demand as a CPU fraction.
func (nf *Notifier) totalDemand() float64 {
	var sum float64
	for _, b := range nf.tasks {
		sum += float64(b.demand()) / float64(b.period)
	}
	return sum
}

// RunUntil drives the schedule to limit.
func (nf *Notifier) RunUntil(limit ticks.Ticks) { nf.runUntil(limit, nf) }

// pick returns the earliest-deadline task with work outstanding.
func (nf *Notifier) pick() *btask {
	return earliest(nf.tasks, func(b *btask) bool { return b.usedPd < b.demand() })
}

func (nf *Notifier) slice(cur *btask) ticks.Ticks { return cur.demand() - cur.usedPd }

func (nf *Notifier) closePeriod(b *btask) { nf.score(b, b.usedPd >= b.demand()) }
