package task

import (
	"testing"

	"repro/internal/ticks"
)

const ms = ticks.PerMillisecond

func TestBusyBodies(t *testing.T) {
	r := Busy().Run(RunContext{Span: 7 * ms})
	if r.Used != 7*ms || r.Op != OpOvertime {
		t.Errorf("Busy = %+v, want full span + overtime", r)
	}
	r = BusySilent().Run(RunContext{Span: 7 * ms})
	if r.Used != 7*ms || r.Op != OpRanOut {
		t.Errorf("BusySilent = %+v, want full span + ran-out", r)
	}
}

func TestPeriodicWorkAccumulates(t *testing.T) {
	b := PeriodicWork(5 * ms)
	// First slice: 3ms of 5ms.
	r := b.Run(RunContext{Span: 3 * ms, UsedThisPeriod: 0})
	if r.Used != 3*ms || r.Op != OpRanOut {
		t.Errorf("first slice = %+v", r)
	}
	// Second slice: finishes the remaining 2ms and yields.
	r = b.Run(RunContext{Span: 4 * ms, UsedThisPeriod: 3 * ms})
	if r.Used != 2*ms || r.Op != OpYield || !r.Completed {
		t.Errorf("second slice = %+v", r)
	}
	// Third dispatch same period: nothing left.
	r = b.Run(RunContext{Span: 4 * ms, UsedThisPeriod: 5 * ms})
	if r.Used != 0 || r.Op != OpYield {
		t.Errorf("post-completion slice = %+v", r)
	}
}

func TestCooperativeWorkGraceSemantics(t *testing.T) {
	b := CooperativeWork(10*ms, 100*ticks.PerMicrosecond)
	// Normal slice behaves like PeriodicWork.
	r := b.Run(RunContext{Span: 4 * ms})
	if r.Used != 4*ms || r.Op != OpRanOut {
		t.Errorf("normal slice = %+v", r)
	}
	// Grace long enough to reach the next safe point: yields there.
	r = b.Run(RunContext{
		Span:           200 * ticks.PerMicrosecond,
		UsedThisPeriod: 4*ms + 30*ticks.PerMicrosecond, // 30us past a poll
		Flags:          FlagInGracePeriod,
	})
	if r.Op != OpYield || r.Used != 70*ticks.PerMicrosecond {
		t.Errorf("grace yield = %+v, want 70us to the next poll", r)
	}
	// Grace shorter than the distance to the next poll: overruns.
	r = b.Run(RunContext{
		Span:           40 * ticks.PerMicrosecond,
		UsedThisPeriod: 4*ms + 30*ticks.PerMicrosecond,
		Flags:          FlagInGracePeriod,
	})
	if r.Op != OpRanOut || r.Used != 40*ticks.PerMicrosecond {
		t.Errorf("grace overrun = %+v, want full span + ran-out", r)
	}
	// Work already complete: yields immediately even in grace.
	r = b.Run(RunContext{Span: ms, UsedThisPeriod: 10 * ms, Flags: FlagInGracePeriod})
	if r.Op != OpYield || !r.Completed {
		t.Errorf("completed grace = %+v", r)
	}
}

func TestWorkThenBlock(t *testing.T) {
	b := WorkThenBlock(2*ms, 5*ms)
	r := b.Run(RunContext{Span: 10 * ms})
	if r.Used != 2*ms || r.Op != OpBlock || r.BlockFor != 5*ms || !r.Completed {
		t.Errorf("WorkThenBlock = %+v", r)
	}
	// Partial progress then block on a later slice.
	r = b.Run(RunContext{Span: ms})
	if r.Used != ms || r.Op != OpRanOut {
		t.Errorf("partial = %+v", r)
	}
	r = b.Run(RunContext{Span: 10 * ms, UsedThisPeriod: ms})
	if r.Used != ms || r.Op != OpBlock {
		t.Errorf("resume then block = %+v", r)
	}
}

func TestFinitePeriods(t *testing.T) {
	b := FinitePeriods(ms, 2)
	// Period 1.
	r := b.Run(RunContext{NewPeriod: true, Span: 5 * ms})
	if r.Used != ms || r.Op != OpYield {
		t.Errorf("period 1 = %+v", r)
	}
	// Period 2.
	r = b.Run(RunContext{NewPeriod: true, Span: 5 * ms})
	if r.Op != OpYield {
		t.Errorf("period 2 = %+v", r)
	}
	// Period 3: exits.
	r = b.Run(RunContext{NewPeriod: true, Span: 5 * ms})
	if r.Op != OpExit {
		t.Errorf("period 3 = %+v, want exit", r)
	}
}
