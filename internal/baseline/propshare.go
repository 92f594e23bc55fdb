package baseline

import (
	"repro/internal/sim"
	"repro/internal/task"
	"repro/internal/ticks"
)

// StreamLottery is the sim.SplitSeed substream the Lottery scheduler
// draws its tickets from. Stream numbers are a fleet-wide namespace
// policed by the rngstream analyzer (see sim.SplitSeed); the lottery
// owns 4, below fault.StreamBase. Giving the draws their own
// substream means a lottery run replays byte-identically from the run
// seed and never perturbs the kernel's cost stream.
const StreamLottery = 4

// quantumLoop is the loop of a quantum-driven scheduler; a quantum that
// is not positive selects 1 ms.
func quantumLoop(k *sim.Kernel, quantum ticks.Ticks) loop {
	if quantum <= 0 {
		quantum = ticks.PerMillisecond
	}
	return loop{k: k, quantum: quantum}
}

// --- FairShare (SMART-like usage-metered stride) ---

// FairShare is a proportional-share scheduler in the SMART mold:
// usage-metered stride scheduling with a fixed quantum, no admission
// control and no service levels.
type FairShare struct {
	loop
}

// NewFairShare builds a fair-share scheduler with the given quantum.
func NewFairShare(k *sim.Kernel, quantum ticks.Ticks) *FairShare {
	return &FairShare{quantumLoop(k, quantum)}
}

// Add registers a periodic task with a proportional weight.
func (f *FairShare) Add(name string, period ticks.Ticks, weight int64, body task.Body) {
	f.add(&btask{name: name, period: period, weight: weight, body: body})
}

// RunUntil drives the schedule to limit.
func (f *FairShare) RunUntil(limit ticks.Ticks) { f.runUntil(limit, f) }

func (f *FairShare) charge(b *btask, used ticks.Ticks) {
	// Usage-metered: pass advances by actual CPU over weight.
	b.sc.charge(int64(used)*strideScale, b.weight)
}

// --- Lottery (Waldspurger & Weihl 1994) ---

// Lottery is ticket-based proportional sharing: each quantum a
// deterministic PRNG (a named SplitSeed substream of the run seed)
// draws a winner among runnable tasks, weighted by tickets. Same
// seed, same schedule.
type Lottery struct {
	loop
	rng *sim.RNG
}

// NewLottery builds a lottery scheduler whose draws come from the
// StreamLottery substream of seed.
func NewLottery(k *sim.Kernel, quantum ticks.Ticks, seed uint64) *Lottery {
	return &Lottery{
		loop: quantumLoop(k, quantum),
		rng:  sim.NewRNG(sim.SplitSeed(seed, StreamLottery)),
	}
}

// Add registers a periodic task holding `tickets` lottery tickets.
func (l *Lottery) Add(name string, period ticks.Ticks, tickets int64, body task.Body) {
	l.add(&btask{name: name, period: period, weight: tickets, body: body})
}

// RunUntil drives the schedule to limit.
func (l *Lottery) RunUntil(limit ticks.Ticks) { l.runUntil(limit, l) }

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
	loop
}

// NewStride builds a stride scheduler with the given quantum.
func NewStride(k *sim.Kernel, quantum ticks.Ticks) *Stride {
	return &Stride{quantumLoop(k, quantum)}
}

// Add registers a periodic task holding `tickets` tickets.
func (s *Stride) Add(name string, period ticks.Ticks, tickets int64, body task.Body) {
	s.add(&btask{name: name, period: period, weight: tickets, body: body})
}

// RunUntil drives the schedule to limit.
func (s *Stride) RunUntil(limit ticks.Ticks) { s.runUntil(limit, s) }

func (s *Stride) charge(b *btask, _ ticks.Ticks) {
	// One stride per selection, remainder carried exactly.
	b.sc.charge(strideScale, b.weight)
}

// --- CFS-style weighted virtual runtime ---

// CFS approximates Linux's Completely Fair Scheduler: the least
// weighted virtual runtime runs next, with the min-vruntime clamp for
// waking tasks. Virtual runtime is FairShare's usage-metered pass and
// the pick is the loop's lowest pass; what CFS adds is the dynamic
// timeslice, a target latency split by weight share.
type CFS struct {
	FairShare
}

// cfsLatencyQuanta is the target scheduling latency in quanta: every
// runnable task should run once per latency window, so a task's
// timeslice is latency·weight/totalweight, floored at a quarter
// quantum of granularity.
const cfsLatencyQuanta = 6

// NewCFS builds a CFS-style scheduler with the given base quantum.
func NewCFS(k *sim.Kernel, quantum ticks.Ticks) *CFS {
	return &CFS{FairShare{quantumLoop(k, quantum)}}
}

// RunUntil drives the schedule to limit.
func (c *CFS) RunUntil(limit ticks.Ticks) { c.runUntil(limit, c) }

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
	if span <= 0 {
		return c.quantum // a quantum under four ticks has no quarter
	}
	return span
}
