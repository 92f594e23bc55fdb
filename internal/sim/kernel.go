//rd:hotpath
package sim

import (
	"fmt"

	"repro/internal/ticks"
)

// Kernel is the virtual machine a Resource Distributor instance runs
// on: a clock, an event queue, a PRNG, the switch-cost model, and
// global counters. It is single-goroutine by design — determinism is
// the point — so it needs no locking. Concurrent sweeps (see
// internal/sweep) run one Kernel per goroutine; a Kernel shares no
// state with other Kernel instances.
//
// Observability probes — Now, NextEventTime, Stats and CacheRefill —
// are read-only: calling them any number of times, at any point, must
// not change what the simulation subsequently does. The
// probe-side-effect audit in probe_test.go enforces this.
// RNG deliberately is not a probe: it hands out the kernel's one
// mutable cost/jitter stream, and drawing from it is a simulation
// action.
type Kernel struct {
	now    ticks.Ticks
	events EventQueue
	rng    RNG
	costs  SwitchCosts

	// timerFault, when non-nil, perturbs event delivery times (late
	// and coalesced timer interrupts); see TimerFault. Nil means exact
	// delivery and zero extra RNG draws.
	timerFault *TimerFault

	// Livelock guard (see Config.SameTickBudget).
	tickBudget int
	tickAt     ticks.Ticks
	tickCount  int
	stall      *StallInfo

	// Counters.
	volSwitches    int64
	involSwitches  int64
	switchTicks    ticks.Ticks
	idleTicks      ticks.Ticks
	busyTicks      ticks.Ticks
	interruptTicks ticks.Ticks
	interrupts     int64

	// tel holds pre-registered telemetry handles (see EnableTelemetry);
	// the zero value records nothing.
	tel kernelTelemetry
}

// DefaultSameTickBudget is the same-tick event budget installed when
// Config.SameTickBudget is zero. Legitimate same-instant cascades
// (period rollovers, interrupt bursts, coalesced timers) run a handful
// of events per tick; tens of thousands at one instant means a
// zero-delay self-rescheduling loop that would otherwise hang the run.
const DefaultSameTickBudget = 1 << 16

// Config parameterises a Kernel.
type Config struct {
	// Seed for the deterministic PRNG. Zero selects a fixed default.
	Seed uint64
	// Costs is the context-switch cost model. The zero value means
	// free, deterministic switches (ZeroSwitchCosts).
	Costs SwitchCosts
	// SameTickBudget bounds how many events may execute at a single
	// virtual instant before the kernel declares a livelock and stops
	// dispatching (reported via Stalled, never a hang or a panic).
	// Zero selects DefaultSameTickBudget; negative disables the guard.
	SameTickBudget int
}

// NewKernel returns a kernel at virtual time zero.
func NewKernel(cfg Config) *Kernel { return NewKernelIn(nil, cfg) }

// NewKernelIn is NewKernel in k's storage (a new Kernel when k is nil):
// k is rebuilt at virtual time zero and keeps only its event pool.
// Every event still queued is reclaimed first, so no callback of the
// previous run stays reachable and every EventRef into it is stale
// (generations only ever grow). The kernel k was is gone: whoever held
// it must not use it again.
func NewKernelIn(k *Kernel, cfg Config) *Kernel {
	budget := cfg.SameTickBudget
	if budget == 0 {
		budget = DefaultSameTickBudget
	}
	if k == nil {
		k = new(Kernel)
	}
	k.events.reset()
	*k = Kernel{
		events:     k.events,
		rng:        *NewRNG(cfg.Seed),
		costs:      cfg.Costs,
		tickBudget: budget,
	}
	return k
}

// Now reports the current virtual time.
func (k *Kernel) Now() ticks.Ticks { return k.now }

// RNG exposes the kernel's deterministic generator, for workload
// models that need randomness tied to the run's seed.
func (k *Kernel) RNG() *RNG { return &k.rng }

// At schedules fn to run at virtual time at. Scheduling in the past
// (before Now) panics: it would silently corrupt causality. An
// installed TimerFault may deliver the event later than asked (never
// earlier), modelling late and coalesced timer interrupts.
//
// The closure forms At/After are for one-shot and cold-path timers.
// Recurring hot-path timers should use AtCall/AfterCall, which carry
// a typed payload on a pooled event and allocate nothing in steady
// state (enforced by the hotalloc analyzer in files marked
// //rd:hotpath).
func (k *Kernel) At(at ticks.Ticks, fn func()) EventRef {
	if at < k.now {
		//rdlint:allow hotalloc panic path: the run is already dead, allocation cost is irrelevant
		panic(fmt.Sprintf("sim: event scheduled at %v, before now %v", at, k.now))
	}
	if k.timerFault != nil {
		at = k.timerFault.adjust(at)
	}
	return k.events.Push(at, fn)
}

// AtCall schedules a typed (closure-free) callback at virtual time at:
// h.HandleEvent(op, id, arg) runs with the clock set to at. Same
// past-scheduling panic and TimerFault perturbation as At.
func (k *Kernel) AtCall(at ticks.Ticks, h Handler, op, id int32, arg ticks.Ticks) EventRef {
	if at < k.now {
		//rdlint:allow hotalloc panic path: the run is already dead, allocation cost is irrelevant
		panic(fmt.Sprintf("sim: event scheduled at %v, before now %v", at, k.now))
	}
	if k.timerFault != nil {
		at = k.timerFault.adjust(at)
	}
	return k.events.PushCall(at, h, op, id, arg)
}

// After schedules fn to run d ticks from now.
func (k *Kernel) After(d ticks.Ticks, fn func()) EventRef {
	return k.At(k.now+d, fn)
}

// AfterCall schedules a typed callback d ticks from now.
func (k *Kernel) AfterCall(d ticks.Ticks, h Handler, op, id int32, arg ticks.Ticks) EventRef {
	return k.AtCall(k.now+d, h, op, id, arg)
}

// Cancel cancels a pending event. Zero and stale refs are no-ops.
func (k *Kernel) Cancel(e EventRef) { k.events.Cancel(e) }

// NextEventTime reports when the next pending event fires.
func (k *Kernel) NextEventTime() (ticks.Ticks, bool) { return k.events.PeekTime() }

// Step runs the single earliest pending event, advancing the clock to
// its time. It reports false if no events are pending, or if the
// kernel has stalled on the same-tick budget (see Stalled) — a stalled
// kernel stops dispatching rather than spinning forever on a
// zero-delay self-rescheduling loop.
func (k *Kernel) Step() bool {
	if k.stall != nil {
		return false
	}
	return k.dispatch()
}

// dispatch pops and runs the earliest pending event, maintaining the
// same-tick budget. The budget check peeks before popping: a stalled
// event stays queued (causality is intact, the clock holds at the
// stall instant) and the pooled event is never handed out. On
// dispatch, the payload is read into locals and the event released
// before the callback runs, so callbacks that immediately re-arm
// reuse the very event that fired them.
func (k *Kernel) dispatch() bool {
	e := k.events.min()
	if e == nil {
		return false
	}
	if e.At == k.tickAt {
		k.tickCount++
		if k.tickBudget > 0 && k.tickCount > k.tickBudget {
			k.stall = &StallInfo{At: e.At, Events: k.tickCount}
			return false
		}
	} else {
		k.tickAt = e.At
		k.tickCount = 1
	}
	k.events.removeAt(0)
	k.now = e.At
	if e.h != nil {
		h, op, id, arg := e.h, e.op, e.id, e.arg
		k.events.release(e)
		h.HandleEvent(op, id, arg)
	} else {
		fn := e.Fn
		k.events.release(e)
		fn()
	}
	return true
}

// RunUntil processes events until the clock reaches or passes limit,
// the queue drains, or the livelock guard trips (see Stalled). The
// clock is left at min(limit, last event time); it is advanced to
// limit if the queue drains earlier so that callers can account
// trailing idle time (the idle skip-ahead: the gap from the last
// event to limit is one clock assignment, not a walk). A stalled
// kernel leaves the clock at the stall instant so the caller can
// report it.
func (k *Kernel) RunUntil(limit ticks.Ticks) {
	for {
		e := k.events.min()
		if e == nil || e.At > limit {
			break
		}
		if k.stall != nil || !k.dispatch() {
			return
		}
	}
	if k.now < limit {
		k.now = limit
	}
}

// advance moves the clock forward by d without processing events: the
// caller has already decided the span is free of scheduling events.
// Advancing past a pending event panics — that would reorder
// causality. Busy and Idle are the only ways in, so every tick the
// clock moves outside an event, a switch or an interrupt lands in one
// of the two buckets (docs/SIMULATOR.md "Where a tick goes").
func (k *Kernel) advance(d ticks.Ticks) {
	if d < 0 {
		panic("sim: advance with negative duration")
	}
	target := k.now + d
	if at, ok := k.events.PeekTime(); ok && at < target {
		//rdlint:allow hotalloc panic path: the run is already dead, allocation cost is irrelevant
		panic(fmt.Sprintf("sim: advance(%v) would skip event at %v (now %v)", d, at, k.now))
	}
	k.now = target
}

// Busy models a task occupying the CPU for d ticks of useful
// execution: the clock advances and the span is accounted busy.
func (k *Kernel) Busy(d ticks.Ticks) {
	k.advance(d)
	k.busyTicks += d
}

// Idle models the CPU sitting idle for d ticks.
func (k *Kernel) Idle(d ticks.Ticks) {
	k.advance(d)
	k.idleTicks += d
}

// AdvanceThrough moves the clock forward by d, firing any events whose
// time falls inside the window. Context-switch cost spans use this:
// the CPU is busy in the kernel, but timers and external events still
// fire at their scheduled instants.
func (k *Kernel) AdvanceThrough(d ticks.Ticks) {
	if d < 0 {
		panic("sim: AdvanceThrough with negative duration")
	}
	k.RunUntil(k.now + d)
}

// ChargeSwitch samples a context-switch cost of the given kind,
// advances the clock by it (firing any events that land inside the
// switch), updates counters, and returns the cost.
func (k *Kernel) ChargeSwitch(kind SwitchKind) ticks.Ticks {
	c := k.costs.Sample(kind, &k.rng)
	if kind == Voluntary {
		k.volSwitches++
		k.tel.volSwitches.Inc()
	} else {
		k.involSwitches++
		k.tel.involSwitches.Inc()
	}
	k.switchTicks += c
	k.tel.switchTicks.Add(int64(c))
	k.tel.switchCost.Observe(int64(c))
	k.AdvanceThrough(c)
	return c
}

// CacheRefill reports the configured cold-cache resume penalty.
func (k *Kernel) CacheRefill() ticks.Ticks { return k.costs.CacheRefill() }

// RunInterrupt models an interrupt handler occupying the CPU for
// service ticks (§5.2): the clock advances (firing any events that
// land inside the window), the time is charged to no task, and the
// interrupt counters are updated.
func (k *Kernel) RunInterrupt(service ticks.Ticks) {
	if service < 0 {
		panic("sim: negative interrupt service time")
	}
	k.interrupts++
	k.interruptTicks += service
	k.tel.interrupts.Inc()
	k.tel.interruptTicks.Add(int64(service))
	k.AdvanceThrough(service)
}

// Stats is a snapshot of the kernel's global counters.
type Stats struct {
	Now            ticks.Ticks
	VolSwitches    int64
	InvolSwitches  int64
	SwitchTicks    ticks.Ticks
	IdleTicks      ticks.Ticks
	BusyTicks      ticks.Ticks
	InterruptTicks ticks.Ticks
	Interrupts     int64
}

// Stats returns a snapshot of the counters.
func (k *Kernel) Stats() Stats {
	return Stats{
		Now:            k.now,
		VolSwitches:    k.volSwitches,
		InvolSwitches:  k.involSwitches,
		SwitchTicks:    k.switchTicks,
		IdleTicks:      k.idleTicks,
		BusyTicks:      k.busyTicks,
		InterruptTicks: k.interruptTicks,
		Interrupts:     k.interrupts,
	}
}

// InterruptLoadFraction reports interrupt handler time as a fraction
// of elapsed virtual time, to compare against the §5.2 reserve.
func (s Stats) InterruptLoadFraction() float64 {
	if s.Now == 0 {
		return 0
	}
	return float64(s.InterruptTicks) / float64(s.Now)
}

// SwitchOverheadFraction reports context-switch ticks as a fraction
// of elapsed virtual time — the quantity behind the paper's "about
// 0.7% of the CPU" figure (§6.1).
func (s Stats) SwitchOverheadFraction() float64 {
	if s.Now == 0 {
		return 0
	}
	return float64(s.SwitchTicks) / float64(s.Now)
}

// Utilization reports busy ticks as a fraction of elapsed time.
func (s Stats) Utilization() float64 {
	if s.Now == 0 {
		return 0
	}
	return float64(s.BusyTicks) / float64(s.Now)
}
