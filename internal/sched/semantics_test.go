package sched

import (
	"testing"

	"repro/internal/rm"
	"repro/internal/sim"
	"repro/internal/task"
	"repro/internal/ticks"
)

// Tests for the §5.5 grant-delivery semantics: callback versus return
// at period boundaries, the calling arguments, FFU-driven forced
// callbacks, and return semantics after mid-grant preemption.

// semBody records every RunContext it receives.
type semBody struct {
	ctxs []task.RunContext
	work ticks.Ticks
}

func (b *semBody) Run(ctx task.RunContext) task.RunResult {
	b.ctxs = append(b.ctxs, ctx)
	left := b.work - ctx.UsedThisPeriod
	if left <= 0 {
		return task.RunResult{Op: task.OpYield, Completed: true}
	}
	if left > ctx.Span {
		return task.RunResult{Used: ctx.Span, Op: task.OpRanOut}
	}
	return task.RunResult{Used: left, Op: task.OpYield, Completed: true}
}

func TestCallingArgumentsPrevUsedPrevCompleted(t *testing.T) {
	// §5.5: "the calling arguments include whether the previous call
	// completed, the sum of the resources used in the previous call".
	_, m, s := newSystem(0, sim.ZeroSwitchCosts())
	b := &semBody{work: 3 * ms}
	mustAdmit(t, m, &task.Task{
		Name: "t", List: task.SingleLevel(10*ms, 4*ms, "T"), Body: b,
	})
	s.RunUntil(35 * ms)
	var boundaries []task.RunContext
	for _, c := range b.ctxs {
		if c.NewPeriod {
			boundaries = append(boundaries, c)
		}
	}
	if len(boundaries) < 3 {
		t.Fatalf("only %d period callbacks", len(boundaries))
	}
	first := boundaries[0]
	if first.PrevUsed != 0 || first.PrevCompleted() {
		t.Errorf("initial grant: PrevUsed=%v PrevCompleted=%v, want zero values", first.PrevUsed, first.PrevCompleted())
	}
	for i, c := range boundaries[1:] {
		if c.PrevUsed != 3*ms {
			t.Errorf("period %d: PrevUsed=%v, want 3ms", i+1, c.PrevUsed)
		}
		if !c.PrevCompleted() {
			t.Errorf("period %d: PrevCompleted=false after a completed period", i+1)
		}
	}
}

func TestReturnSemanticsAfterMidGrantPreemption(t *testing.T) {
	// §5.5: "all tasks use return semantics when they have been
	// preempted in the middle of their grant for the period; callback
	// semantics apply only at the beginning of a new period."
	_, m, s := newSystem(0, sim.ZeroSwitchCosts())
	b := &semBody{work: 12 * ms} // will be preempted mid-grant
	mustAdmit(t, m, &task.Task{
		Name: "long", List: task.SingleLevel(30*ms, 12*ms, "L"), Body: b,
		Semantics: task.CallbackSemantics,
	})
	mustAdmit(t, m, &task.Task{
		Name: "short", List: task.SingleLevel(10*ms, 4*ms, "S"), Body: task.PeriodicWork(4 * ms),
	})
	s.RunUntil(60 * ms)
	newPeriods, continuations := 0, 0
	for _, c := range b.ctxs {
		if c.NewPeriod {
			newPeriods++
		} else {
			continuations++
		}
	}
	if newPeriods != 2 {
		t.Errorf("callbacks = %d, want 2 (one per period)", newPeriods)
	}
	if continuations == 0 {
		t.Error("no return-semantics continuations despite mid-grant preemption")
	}
	// Continuations carry accumulated progress.
	sawProgress := false
	for _, c := range b.ctxs {
		if !c.NewPeriod && c.UsedThisPeriod > 0 {
			sawProgress = true
		}
	}
	if !sawProgress {
		t.Error("continuation contexts never showed UsedThisPeriod > 0")
	}
}

// ffuBody tracks NewPeriod deliveries for the FFU-change test.
type ffuBody struct{ callbacks, resumes int }

func (b *ffuBody) Run(ctx task.RunContext) task.RunResult {
	if ctx.NewPeriod {
		b.callbacks++
	} else {
		b.resumes++
	}
	return task.RunResult{Used: ctx.Span, Op: task.OpRanOut}
}

func TestFFUChangeForcesCallbackWithoutFilter(t *testing.T) {
	// §5.5: "If the grant change involves either acquiring or losing
	// access to this unit, then the 3D graphics task needs to use
	// callback semantics". Without a registered filter, the scheduler
	// decides from the entries' NeedsFFU flags.
	k := sim.NewKernel(sim.Config{Costs: sim.ZeroSwitchCosts()})
	m := rm.New(rm.Config{})
	s := New(Config{Kernel: k, RM: m})
	m.SetHooks(s)
	b := &ffuBody{}
	list := task.ResourceList{
		{Period: 10 * ms, CPU: 8 * ms, Fn: "Scaled", NeedsFFU: true},
		{Period: 10 * ms, CPU: 2 * ms, Fn: "Soft"},
	}
	mustAdmit(t, m, &task.Task{
		Name: "gfx", List: list, Body: b, Semantics: task.ReturnSemantics,
	})
	s.RunUntil(30 * ms)
	afterStart := b.callbacks // the initial grant is always a callback
	if afterStart != 1 {
		t.Fatalf("initial callbacks = %d, want 1", afterStart)
	}
	// Force overload: gfx sheds from the FFU level to the soft level.
	k.At(k.Now(), func() {
		mustAdmitErrless(m, &task.Task{
			Name: "hog", List: task.SingleLevel(10*ms, 7*ms, "H"), Body: task.PeriodicWork(7 * ms),
		})
	})
	s.RunUntil(60 * ms)
	if b.callbacks < 2 {
		t.Errorf("callbacks = %d; losing the FFU must force a fresh callback", b.callbacks)
	}
}

func TestReturnSemanticsPlainGrantChangeNoCallback(t *testing.T) {
	// A grant change that does NOT cross the FFU boundary keeps
	// return semantics for a return-semantics task without a filter.
	k := sim.NewKernel(sim.Config{Costs: sim.ZeroSwitchCosts()})
	m := rm.New(rm.Config{})
	s := New(Config{Kernel: k, RM: m})
	m.SetHooks(s)
	b := &ffuBody{}
	mustAdmit(t, m, &task.Task{
		Name: "gfx", List: task.UniformLevels(10*ms, "Render", 80, 20),
		Body: b, Semantics: task.ReturnSemantics,
	})
	s.RunUntil(30 * ms)
	k.At(k.Now(), func() {
		mustAdmitErrless(m, &task.Task{
			Name: "hog", List: task.SingleLevel(10*ms, 7*ms, "H"), Body: task.PeriodicWork(7 * ms),
		})
	})
	s.RunUntil(60 * ms)
	if b.callbacks != 1 {
		t.Errorf("callbacks = %d, want 1 (initial only; non-FFU change keeps return semantics)", b.callbacks)
	}
	if b.resumes == 0 {
		t.Error("no return-semantics resumptions recorded")
	}
}
