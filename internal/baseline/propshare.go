package baseline

import (
	"repro/internal/sim"
	"repro/internal/task"
	"repro/internal/telemetry"
	"repro/internal/ticks"
)

// StreamLottery is the sim.SplitSeed substream the Lottery scheduler
// draws its tickets from. Stream numbers are a fleet-wide namespace
// policed by the rngstream analyzer (see sim.SplitSeed); the lottery
// owns 4, below fault.StreamBase. Giving the draws their own
// substream means a lottery run replays byte-identically from the run
// seed and never perturbs the kernel's cost stream.
const StreamLottery = 4

// propTelemetry holds the proportional-share family's pre-registered
// instrument handles, mirroring sched's wiring seam: the zero value
// (all nil) records nothing, so the run loop instruments
// unconditionally.
type propTelemetry struct {
	slices    *telemetry.Counter
	idle      *telemetry.Counter
	completed *telemetry.Counter
	missed    *telemetry.Counter
	draws     *telemetry.Counter // lottery only

	sliceTicks *telemetry.Histogram
}

// propSliceBuckets matches sched.dispatch.slice geometry: 1 ms
// buckets spanning 0-32 ms.
const propSliceBuckets = 32

// propCore is the machinery shared by the proportional-share
// comparators (FairShare, Lottery, Stride, CFS): the task table,
// period bookkeeping, the global virtual time used to clamp waking
// tasks, and the quantum-driven run loop. Each scheduler supplies
// only its selection, slice-sizing and charging rules.
type propCore struct {
	k       *sim.Kernel
	quantum ticks.Ticks
	tasks   []*btask
	// vmin is the scheduler's global virtual time: the highest pass
	// ever dispatched. Waking tasks are clamped up to it so a
	// long-parked task cannot return with a stale, far-behind pass and
	// monopolize the CPU (the stride/CFS sleeper bug).
	vmin ticks.Ticks
	// onWake, when set, is told about every task that is runnable
	// after a period rollover (CFS uses it to feed its ready queue).
	onWake func(*btask)
	tel    propTelemetry
}

// propPicker is what a concrete scheduler adds on top of propCore.
type propPicker interface {
	// pick selects the next runnable task, or nil when all are parked.
	pick() *btask
	// slice sizes the time slice offered to cur, before the run loop
	// bounds it by period boundaries and kernel events.
	slice(cur *btask) ticks.Ticks
	// charge advances cur's virtual time for used ticks of CPU.
	charge(cur *btask, used ticks.Ticks)
	// dispatched is called after cur's slice has been folded in (CFS
	// re-queues still-runnable tasks here).
	dispatched(cur *btask)
}

func (c *propCore) add(name string, period ticks.Ticks, weight int64, body task.Body) *btask {
	if weight <= 0 {
		weight = 1
	}
	b := &btask{name: name, period: period, body: body, weight: weight}
	b.beginPeriod(c.k.Now())
	c.tasks = append(c.tasks, b)
	if c.onWake != nil {
		c.onWake(b)
	}
	return b
}

// Stats reports accounting for a task by name.
func (c *propCore) Stats(name string) (Stats, bool) {
	for _, b := range c.tasks {
		if b.name == name {
			return b.stats, true
		}
	}
	return Stats{}, false
}

// Utilization reports busy CPU as a fraction of elapsed time.
func (c *propCore) Utilization() float64 { return c.k.Stats().Utilization() }

// Instrument pre-registers the scheduler's instruments in t's
// registry — the cold half of the telemetry contract. A nil Set
// leaves every handle nil and the scheduler silent.
func (c *propCore) Instrument(t *telemetry.Set) {
	r := t.Reg()
	c.tel = propTelemetry{
		slices:    r.Counter("baseline.dispatch.slices"),
		idle:      r.Counter("baseline.dispatch.idle"),
		completed: r.Counter("baseline.period.completed"),
		missed:    r.Counter("baseline.period.missed"),
		draws:     r.Counter("baseline.lottery.draws"),
		sliceTicks: r.Histogram("baseline.dispatch.slice",
			int64(ticks.PerMillisecond), propSliceBuckets),
	}
}

// roll advances period boundaries up to now, scoring each finished
// period: Completed only when the body reported its work done,
// MissedPeriods otherwise — a blocked-but-unfinished frame is a miss.
// Tasks runnable after rolling get their pass clamped to the global
// virtual time (wake reset).
func (c *propCore) roll(now ticks.Ticks) {
	for _, b := range c.tasks {
		wasParked := b.parked
		rolled := false
		for b.deadline <= now {
			if b.completedPd {
				b.stats.Completed++
				c.tel.completed.Inc()
			} else {
				b.stats.MissedPeriods++
				c.tel.missed.Inc()
			}
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

func (c *propCore) nextBoundary(limit ticks.Ticks) ticks.Ticks {
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

// runUntil is the shared dispatch loop: roll periods, let the
// concrete scheduler pick and size a slice, bound it by the next
// boundary/event, run the body, account, charge, park.
func (c *propCore) runUntil(limit ticks.Ticks, p propPicker) {
	for c.k.Now() < limit {
		now := c.k.Now()
		c.k.RunUntil(now)
		c.roll(now)
		next := c.nextBoundary(limit)
		cur := p.pick()
		if cur == nil {
			d := next - now
			if d <= 0 {
				return
			}
			c.k.Advance(d)
			c.k.AccountIdle(d)
			c.tel.idle.Inc()
			continue
		}
		if cur.sc.pass > c.vmin {
			c.vmin = cur.sc.pass
		}
		span := p.slice(cur)
		if span <= 0 || span > c.quantum*8 {
			span = c.quantum
		}
		if now+span > next {
			span = next - now
		}
		if span <= 0 {
			panic("baseline: zero proportional-share slice")
		}
		res := cur.body.Run(cur.ctx(now, span))
		used := clampUsed(res.Used, span)
		c.k.Advance(used)
		c.k.AccountBusy(used)
		cur.usedPd += used
		cur.stats.UsedTicks += used
		p.charge(cur, used)
		applyOp(cur, res)
		p.dispatched(cur)
		c.tel.slices.Inc()
		c.tel.sliceTicks.Observe(int64(used))
	}
}

// --- FairShare (SMART-like usage-metered stride) ---

// FairShare is a proportional-share scheduler in the SMART mold:
// usage-metered stride scheduling with a fixed quantum, no admission
// control and no service levels.
type FairShare struct {
	propCore
}

// NewFairShare builds a fair-share scheduler with the given quantum.
func NewFairShare(k *sim.Kernel, quantum ticks.Ticks) *FairShare {
	if quantum <= 0 {
		quantum = ticks.PerMillisecond
	}
	return &FairShare{propCore{k: k, quantum: quantum}}
}

// Add registers a periodic task with a proportional weight.
func (f *FairShare) Add(name string, period ticks.Ticks, weight int64, body task.Body) {
	f.add(name, period, weight, body)
}

// RunUntil drives the schedule to limit.
func (f *FairShare) RunUntil(limit ticks.Ticks) { f.runUntil(limit, f) }

func (f *FairShare) pick() *btask             { return minPass(f.tasks) }
func (f *FairShare) slice(*btask) ticks.Ticks { return f.quantum }
func (f *FairShare) dispatched(*btask)        {}
func (f *FairShare) charge(b *btask, used ticks.Ticks) {
	// Usage-metered: pass advances by actual CPU over weight.
	b.sc.charge(int64(used)*strideScale, b.weight)
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

// --- Lottery (Waldspurger & Weihl 1994) ---

// Lottery is ticket-based proportional sharing: each quantum a
// deterministic PRNG (a named SplitSeed substream of the run seed)
// draws a winner among runnable tasks, weighted by tickets. Same
// seed, same schedule.
type Lottery struct {
	propCore
	rng *sim.RNG
}

// NewLottery builds a lottery scheduler whose draws come from the
// StreamLottery substream of seed.
func NewLottery(k *sim.Kernel, quantum ticks.Ticks, seed uint64) *Lottery {
	if quantum <= 0 {
		quantum = ticks.PerMillisecond
	}
	return &Lottery{
		propCore: propCore{k: k, quantum: quantum},
		rng:      sim.NewRNG(sim.SplitSeed(seed, StreamLottery)),
	}
}

// Add registers a periodic task holding `tickets` lottery tickets.
func (l *Lottery) Add(name string, period ticks.Ticks, tickets int64, body task.Body) {
	l.add(name, period, tickets, body)
}

// RunUntil drives the schedule to limit.
func (l *Lottery) RunUntil(limit ticks.Ticks) { l.runUntil(limit, l) }

func (l *Lottery) slice(*btask) ticks.Ticks   { return l.quantum }
func (l *Lottery) charge(*btask, ticks.Ticks) {}
func (l *Lottery) dispatched(*btask)          {}

func (l *Lottery) pick() *btask {
	var total int64
	var only *btask
	n := 0
	for _, b := range l.tasks {
		if b.parked {
			continue
		}
		total += b.weight
		only = b
		n++
	}
	if n == 0 {
		return nil
	}
	if n == 1 {
		// No draw with a single runnable task: keeps the stream
		// position a function of genuine contention.
		return only
	}
	win := int64(l.rng.Uint64() % uint64(total))
	l.tel.draws.Inc()
	for _, b := range l.tasks {
		if b.parked {
			continue
		}
		win -= b.weight
		if win < 0 {
			return b
		}
	}
	return only
}

// --- Stride (Waldspurger 1995) ---

// Stride is the deterministic counterpart of lottery scheduling: each
// task advances its pass by a fixed stride (scale/tickets) per
// quantum it is selected, and the lowest pass runs. Unlike FairShare
// it charges per selection, not per tick actually used — the textbook
// quantum-granularity algorithm.
type Stride struct {
	propCore
}

// NewStride builds a stride scheduler with the given quantum.
func NewStride(k *sim.Kernel, quantum ticks.Ticks) *Stride {
	if quantum <= 0 {
		quantum = ticks.PerMillisecond
	}
	return &Stride{propCore{k: k, quantum: quantum}}
}

// Add registers a periodic task holding `tickets` tickets.
func (s *Stride) Add(name string, period ticks.Ticks, tickets int64, body task.Body) {
	s.add(name, period, tickets, body)
}

// RunUntil drives the schedule to limit.
func (s *Stride) RunUntil(limit ticks.Ticks) { s.runUntil(limit, s) }

func (s *Stride) pick() *btask             { return minPass(s.tasks) }
func (s *Stride) slice(*btask) ticks.Ticks { return s.quantum }
func (s *Stride) dispatched(*btask)        {}
func (s *Stride) charge(b *btask, _ ticks.Ticks) {
	// One stride per selection, remainder carried exactly.
	b.sc.charge(strideScale, b.weight)
}

// --- CFS-style weighted virtual runtime ---

// CFS approximates Linux's Completely Fair Scheduler: weighted
// virtual runtime with a min-vruntime ready queue, a dynamic
// timeslice (target latency split by weight share), and the
// min-vruntime clamp for waking tasks.
type CFS struct {
	propCore
	ready vrQueue
}

// cfsLatencyQuanta is the target scheduling latency in quanta: every
// runnable task should run once per latency window, so a task's
// timeslice is latency·weight/totalweight, floored at a quarter
// quantum of granularity.
const cfsLatencyQuanta = 6

// NewCFS builds a CFS-style scheduler with the given base quantum.
func NewCFS(k *sim.Kernel, quantum ticks.Ticks) *CFS {
	if quantum <= 0 {
		quantum = ticks.PerMillisecond
	}
	c := &CFS{propCore: propCore{k: k, quantum: quantum}}
	c.onWake = func(b *btask) { c.ready.push(b) }
	return c
}

// Add registers a periodic task with a CFS weight.
func (c *CFS) Add(name string, period ticks.Ticks, weight int64, body task.Body) {
	c.add(name, period, weight, body)
}

// RunUntil drives the schedule to limit.
func (c *CFS) RunUntil(limit ticks.Ticks) { c.runUntil(limit, c) }

func (c *CFS) pick() *btask { return c.ready.pop() }

func (c *CFS) slice(cur *btask) ticks.Ticks {
	var total int64
	for _, b := range c.tasks {
		if !b.parked {
			total += b.weight
		}
	}
	if total <= 0 {
		return c.quantum
	}
	span := ticks.Ticks(int64(c.quantum) * cfsLatencyQuanta * cur.weight / total)
	if min := c.quantum / 4; span < min {
		span = min
	}
	return span
}

func (c *CFS) charge(b *btask, used ticks.Ticks) {
	// vruntime advances by used CPU over weight.
	b.sc.charge(int64(used)*strideScale, b.weight)
}

func (c *CFS) dispatched(cur *btask) {
	if !cur.parked {
		c.ready.push(cur)
	}
}

// vrQueue is a binary min-heap of runnable tasks keyed by (vruntime,
// name) — the CFS ready queue. Tasks track membership via
// btask.queued so period rollovers can re-insert woken tasks exactly
// once.
type vrQueue []*btask

func vrLess(a, b *btask) bool {
	if a.sc.pass != b.sc.pass {
		return a.sc.pass < b.sc.pass
	}
	return a.name < b.name
}

func (q *vrQueue) push(b *btask) {
	if b.queued || b.parked {
		return
	}
	b.queued = true
	*q = append(*q, b)
	i := len(*q) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !vrLess((*q)[i], (*q)[parent]) {
			break
		}
		(*q)[i], (*q)[parent] = (*q)[parent], (*q)[i]
		i = parent
	}
}

func (q *vrQueue) pop() *btask {
	h := *q
	if len(h) == 0 {
		return nil
	}
	top := h[0]
	last := len(h) - 1
	h[0] = h[last]
	h[last] = nil
	*q = h[:last]
	h = *q
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		small := i
		if l < len(h) && vrLess(h[l], h[small]) {
			small = l
		}
		if r < len(h) && vrLess(h[r], h[small]) {
			small = r
		}
		if small == i {
			break
		}
		h[i], h[small] = h[small], h[i]
		i = small
	}
	top.queued = false
	return top
}
