package task

import "repro/internal/ticks"

// This file provides generic task bodies used by tests, benchmarks,
// and the workload models: stateless stand-ins for the QOS functions
// a real application would register in its resource list.

// Busy returns a body that always consumes everything it is offered
// and asks for more (joins the OvertimeRequested queue when its grant
// runs out). It models the paper's BusyLoop() threads (Table 6) and
// the Figure 4 producer that "never reports that it has finished its
// work for the period".
func Busy() Body {
	return BodyFunc(func(ctx RunContext) RunResult {
		return RunResult{Used: ctx.Span, Op: OpOvertime}
	})
}

// BusySilent consumes everything offered but never requests overtime:
// when its grant ends it simply waits for the next period.
func BusySilent() Body {
	return BodyFunc(func(ctx RunContext) RunResult {
		return RunResult{Used: ctx.Span, Op: OpRanOut}
	})
}

// YieldAll consumes every span it is offered and then yields,
// reporting the period's work done, and never asks for more — the
// data-management threads of Figure 4, the DVD and overlay tasks of
// the examples. A span is the whole grant only when no kernel event
// falls inside it; a span cut short by an event ends the period's
// work all the same.
func YieldAll() Body {
	return BodyFunc(func(ctx RunContext) RunResult {
		return RunResult{Used: ctx.Span, Op: OpYield, Completed: true}
	})
}

// PeriodicWork returns a body that performs exactly work ticks of CPU
// each period and then yields, reporting completion. Progress is
// tracked through ctx.UsedThisPeriod, so the body itself is
// stateless and preemption-transparent.
func PeriodicWork(work ticks.Ticks) Body {
	return BodyFunc(func(ctx RunContext) RunResult {
		left := work - ctx.UsedThisPeriod
		if left <= 0 {
			return RunResult{Op: OpYield, Completed: true}
		}
		if left <= ctx.Span {
			return RunResult{Used: left, Op: OpYield, Completed: true}
		}
		return RunResult{Used: ctx.Span, Op: OpRanOut}
	})
}

// CooperativeWork is like PeriodicWork but honours grace periods:
// when dispatched with InGracePeriod set it yields within checkEvery
// ticks (its "safe point" granularity), modelling a §5.6
// controlled-preemption task that polls its notification address.
func CooperativeWork(work, checkEvery ticks.Ticks) Body {
	return BodyFunc(func(ctx RunContext) RunResult {
		left := work - ctx.UsedThisPeriod
		if left <= 0 {
			return RunResult{Op: OpYield, Completed: true}
		}
		if ctx.InGracePeriod() {
			// The task only notices the notification at its next safe
			// point, checkEvery ticks apart. If the grace window ends
			// before the next poll, it fails to yield and overruns.
			dist := checkEvery - ctx.UsedThisPeriod%checkEvery
			if dist > left {
				dist = left
			}
			if dist > ctx.Span {
				return RunResult{Used: ctx.Span, Op: OpRanOut}
			}
			return RunResult{Used: dist, Op: OpYield, Completed: dist == left}
		}
		if left <= ctx.Span {
			return RunResult{Used: left, Op: OpYield, Completed: true}
		}
		return RunResult{Used: ctx.Span, Op: OpRanOut}
	})
}

// WorkThenBlock performs work ticks then blocks for blockFor ticks
// (zero blocks until an explicit Unblock). It models data-management
// threads that wait for producers.
func WorkThenBlock(work, blockFor ticks.Ticks) Body {
	return BodyFunc(func(ctx RunContext) RunResult {
		left := work - ctx.UsedThisPeriod
		if left <= 0 {
			return RunResult{Op: OpBlock, BlockFor: blockFor, Completed: true}
		}
		if left <= ctx.Span {
			return RunResult{Used: left, Op: OpBlock, BlockFor: blockFor, Completed: true}
		}
		return RunResult{Used: ctx.Span, Op: OpRanOut}
	})
}

// FinitePeriods performs work ticks per period for n periods, then
// exits. It models a task that "terminates naturally" (first
// principle 1), like a CD reaching its end.
func FinitePeriods(work ticks.Ticks, n int) Body {
	periods := 0
	return BodyFunc(func(ctx RunContext) RunResult {
		if ctx.NewPeriod {
			periods++
			if periods > n {
				return RunResult{Op: OpExit}
			}
		}
		left := work - ctx.UsedThisPeriod
		if left <= 0 {
			return RunResult{Op: OpYield, Completed: true}
		}
		if left <= ctx.Span {
			return RunResult{Used: left, Op: OpYield, Completed: true}
		}
		return RunResult{Used: ctx.Span, Op: OpRanOut}
	})
}
