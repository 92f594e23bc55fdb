package baseline

import (
	"cmp"
	"fmt"
	"slices"
	"strings"
	"testing"

	"repro/internal/sim"
	"repro/internal/task"
	"repro/internal/telemetry"
	"repro/internal/ticks"
)

// walkRoll and walkBoundary are roll and nextBoundary as they were
// before the loop kept nextRoll: both walk every task on every pass.
func walkRoll(c *loop, now ticks.Ticks, p picker) {
	for _, b := range c.tasks {
		wasParked := b.parked
		rolled := false
		for b.deadline <= now {
			p.closePeriod(b)
			b.beginPeriod(b.deadline)
			rolled = true
		}
		if rolled && wasParked {
			b.sc.wake(c.vmin)
		}
	}
}

func walkBoundary(c *loop, limit ticks.Ticks) ticks.Ticks {
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

// walkRunUntil is runUntil over walkRoll and walkBoundary: the
// full-walk reference loop of the six pickers.
func walkRunUntil(c *loop, limit ticks.Ticks, p picker) {
	for c.k.Now() < limit {
		now := c.k.Now()
		c.k.RunUntil(now)
		walkRoll(c, now, p)
		next := walkBoundary(c, limit)
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
			Now: now, Span: span, PeriodStart: cur.deadline - cur.period,
			NewPeriod: newPd, UsedThisPeriod: cur.usedPd,
		})
		used := clampUsed(res.Used, span)
		c.spend(cur, used)
		p.charge(cur, used)
		applyOp(cur, res)
	}
}

// walkRialto is Rialto.RunUntil over walkRoll and walkBoundary.
func walkRialto(r *Rialto, limit ticks.Ticks) {
	for r.k.Now() < limit {
		now := r.k.Now()
		r.k.RunUntil(now)
		walkRoll(&r.loop, now, r)
		r.expireConstraints(now)
		next := walkBoundary(&r.loop, limit)
		for _, c := range r.cons {
			if !c.done && !c.missed && c.deadline < next {
				next = c.deadline
			}
		}
		if c := r.nextConstraint(); c != nil {
			span := sliceWithin(c.remain, next-now)
			used := clampUsed(c.body.Run(task.RunContext{Now: now, Span: span}).Used, span)
			if used == 0 {
				used = span
			}
			r.spend(c.owner, used)
			c.remain -= used
			if c.remain <= 0 {
				c.done = true
				c.owner.stats.Completed++
			}
			continue
		}
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

// comparatorKinds are the schedulers on the shared loop: the six
// pickers and Rialto.
var comparatorKinds = []string{"fairshare", "lottery", "stride", "cfs", "reserves", "notifier", "rialto"}

// rollRun stages one seeded schedule under kind — tasks admitted at
// the start and at random instants, bodies that run out, yield, block
// and ask for overtime, kernel events that cut slices, and for Rialto
// constraint arrivals — runs it to a random horizon on the scheduler's
// own loop, or with walk on the full-walk reference, and returns what
// it made observable: every body call (the task picked, its slice
// bounds and what it did), each task's Stats, the clock split and the
// loop's telemetry. A non-nil check sees the task table and the name
// of the body about to run at every body call.
func rollRun(kind string, seed uint64, walk bool, check func(c *loop, picked string)) string {
	rng := sim.NewRNG(seed)
	k := kernel()
	var log strings.Builder
	var c *loop
	wrap := func(name string, body task.Body) task.Body {
		return task.BodyFunc(func(ctx task.RunContext) task.RunResult {
			if check != nil {
				check(c, name)
			}
			res := body.Run(ctx)
			fmt.Fprintf(&log, "%s %d+%d new=%v ps=%d used=%d -> %d %v\n",
				name, ctx.Now, ctx.Span, ctx.NewPeriod, ctx.PeriodStart, ctx.UsedThisPeriod, res.Used, res.Op)
			return res
		})
	}
	pct := func(period ticks.Ticks, lo, hi int) ticks.Ticks {
		return max(1, period*ticks.Ticks(lo+rng.Intn(hi-lo+1))/100)
	}
	body := func(period ticks.Ticks) task.Body {
		switch rng.Intn(5) {
		case 0:
			return task.PeriodicWork(pct(period, 5, 45))
		case 1:
			return task.Busy()
		case 2:
			return task.BusySilent()
		case 3:
			return task.WorkThenBlock(pct(period, 5, 30), 0)
		default:
			return task.YieldAll()
		}
	}

	var (
		p   picker
		add func(name string, period ticks.Ticks)
		run func(ticks.Ticks)
	)
	weight := func() int64 { return int64(1 + rng.Intn(5)) }
	quantum := ticks.Ticks(1+rng.Intn(3)) * ms / 2
	switch kind {
	case "fairshare":
		s := NewFairShare(k, quantum)
		c, p, run = &s.loop, s, s.RunUntil
		add = func(n string, pd ticks.Ticks) { s.Add(n, pd, weight(), wrap(n, body(pd))) }
	case "lottery":
		s := NewLottery(k, quantum, seed)
		c, p, run = &s.loop, s, s.RunUntil
		add = func(n string, pd ticks.Ticks) { s.Add(n, pd, weight(), wrap(n, body(pd))) }
	case "stride":
		s := NewStride(k, quantum)
		c, p, run = &s.loop, s, s.RunUntil
		add = func(n string, pd ticks.Ticks) { s.Add(n, pd, weight(), wrap(n, body(pd))) }
	case "cfs":
		s := NewCFS(k, quantum)
		c, p, run = &s.loop, s, s.RunUntil
		add = func(n string, pd ticks.Ticks) { s.Add(n, pd, weight(), wrap(n, body(pd))) }
	case "reserves":
		s := NewReserves(k)
		c, p, run = &s.loop, s, s.RunUntil
		add = func(n string, pd ticks.Ticks) {
			err := s.Reserve(n, pd, pct(pd, 5, 30), wrap(n, body(pd)))
			fmt.Fprintf(&log, "reserve %s at %d: %v\n", n, k.Now(), err)
		}
	case "notifier":
		s := NewNotifier(k, ticks.Ticks(5+rng.Intn(30))*ms)
		c, p, run = &s.loop, s, s.RunUntil
		add = func(n string, pd ticks.Ticks) {
			s.Add(n, pd, []ticks.Ticks{pct(pd, 20, 50), pct(pd, 5, 15)})
			b := s.byName(n)
			b.body = wrap(n, b.body)
		}
	case "rialto":
		s := NewRialto(k)
		c, run = &s.loop, s.RunUntil
		var arrive func(n string, pd ticks.Ticks)
		arrive = func(n string, pd ticks.Ticks) {
			ok := s.BeginConstraint(n, k.Now()+pd, pct(pd, 10, 60), wrap(n+"/c", task.Busy()))
			fmt.Fprintf(&log, "constraint %s at %d: %v\n", n, k.Now(), ok)
			k.After(pd, func() { arrive(n, pd) })
		}
		add = func(n string, pd ticks.Ticks) {
			err := s.AddTask(n, pd, pct(pd, 0, 20))
			fmt.Fprintf(&log, "add %s at %d: %v\n", n, k.Now(), err)
			if rng.Intn(2) == 0 {
				arrive(n, pd)
			}
		}
		if walk {
			run = func(limit ticks.Ticks) { walkRialto(s, limit) }
		}
	default:
		panic("unknown comparator " + kind)
	}
	if walk && p != nil {
		run = func(limit ticks.Ticks) { walkRunUntil(c, limit, p) }
	}
	tel := &telemetry.Set{Registry: telemetry.NewRegistry()}
	c.Instrument(tel)

	horizon := ticks.Ticks(50+rng.Intn(350))*ms + ticks.Ticks(rng.Intn(int(ms)))
	at := func() ticks.Ticks { return ticks.Ticks(rng.Uint64() % uint64(horizon)) }
	period := func() ticks.Ticks { return ticks.Ticks(3+rng.Intn(38))*ms + ticks.Ticks(rng.Intn(1000)) }
	n := 2 + rng.Intn(5)
	late := rng.Intn(4)
	for i := 0; i < n+late; i++ {
		name, pd := fmt.Sprintf("t%d", i), period()
		if i < n {
			add(name, pd)
		} else {
			k.At(at(), func() { add(name, pd) })
		}
	}
	for i := rng.Intn(6); i > 0; i-- {
		k.At(at(), func() {}) // an event that cuts a slice
	}
	run(horizon)

	for _, b := range c.tasks {
		fmt.Fprintf(&log, "stats %s %+v\n", b.name, b.stats)
	}
	fmt.Fprintf(&log, "kernel %+v\ntelemetry %+v\n", k.Stats(), tel.Reg().Snapshot())
	return log.String()
}

// TestLoopRollSkipMatchesFullWalk holds the loop's nextRoll watermark
// to the full walk it replaced: under every comparator, random task
// sets — some admitted mid-run, which is what lowers the watermark —
// periods, horizons and slice-cutting events must give the same picks,
// slice bounds and Stats whether roll and the slice bound read the
// watermark or walk the table on every pass.
func TestLoopRollSkipMatchesFullWalk(t *testing.T) {
	for _, kind := range comparatorKinds {
		ran := 0
		for seed := uint64(1); seed <= 25; seed++ {
			got, want := rollRun(kind, seed, false, nil), rollRun(kind, seed, true, nil)
			if got != want {
				g, w := strings.Split(got, "\n"), strings.Split(want, "\n")
				for i := range g {
					if i >= len(w) || g[i] != w[i] {
						t.Fatalf("%s seed %d: first difference at line %d:\n watermark: %s\n full walk: %s",
							kind, seed, i, g[i], w[min(i, len(w)-1)])
					}
				}
				t.Fatalf("%s seed %d: transcripts differ in length (%d vs %d lines)", kind, seed, len(g), len(w))
			}
			if strings.Contains(got, " -> ") {
				ran++
			}
		}
		if ran < 20 {
			t.Errorf("%s: a body ran in only %d of 25 schedules", kind, ran)
		}
	}
}

// definedPick returns the name of the task that kind's picker must run
// ("" for none) and how many tasks contended for it, written out from
// the scheduler's definition rather than through minPass or earliest:
// the lowest (pass, name) among tasks that are not parked for
// FairShare, Stride and CFS, the earliest (deadline, name) among tasks
// that are not parked for Reserves, and among tasks with demand left
// for Notifier.
func definedPick(kind string, tasks []*btask) (string, int) {
	var contenders []*btask
	for _, b := range tasks {
		if kind == "notifier" && b.usedPd < b.levels[b.level] ||
			kind != "notifier" && !b.parked {
			contenders = append(contenders, b)
		}
	}
	if len(contenders) == 0 {
		return "", 0
	}
	key := func(b *btask) ticks.Ticks { return b.sc.pass }
	if kind == "reserves" || kind == "notifier" {
		key = func(b *btask) ticks.Ticks { return b.deadline }
	}
	slices.SortFunc(contenders, func(a, b *btask) int {
		return cmp.Or(cmp.Compare(key(a), key(b)), strings.Compare(a.name, b.name))
	})
	return contenders[0].name, len(contenders)
}

// TestPickMatchesDefinition holds every deterministic picker to its
// definition on rollRun's churn tapes — mid-run admissions, blocks,
// yields, overtime requests and slice-cutting events: at each body
// call, the task whose body runs is definedPick's. (Lottery draws, so
// it has no such rule; Rialto is not a picker.)
func TestPickMatchesDefinition(t *testing.T) {
	for _, kind := range []string{"fairshare", "stride", "cfs", "reserves", "notifier"} {
		contested := 0
		for seed := uint64(1); seed <= 40; seed++ {
			var bad string
			rollRun(kind, seed, false, func(c *loop, picked string) {
				want, n := definedPick(kind, c.tasks)
				if n > 1 {
					contested++
				}
				if bad == "" && want != picked {
					bad = fmt.Sprintf("at %d ran %s; the definition picks %q among %d", c.k.Now(), picked, want, n)
				}
			})
			if bad != "" {
				t.Fatalf("%s seed %d: %s", kind, seed, bad)
			}
		}
		if contested < 1000 {
			t.Errorf("%s: only %d picks had two or more contenders", kind, contested)
		}
	}
}
