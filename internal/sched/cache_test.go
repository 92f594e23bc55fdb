package sched

import (
	"testing"

	"repro/internal/rm"
	"repro/internal/sim"
	"repro/internal/task"
	"repro/internal/ticks"
)

// newCacheSystem wires a scheduler whose cost model includes a
// cold-cache refill penalty on resume after involuntary preemption.
func newCacheSystem(refillUS float64) (*sim.Kernel, *rm.Manager, *Scheduler) {
	costs := sim.ZeroSwitchCosts()
	costs.CacheRefillUS = refillUS
	k := sim.NewKernel(sim.Config{Seed: 1, Costs: costs})
	m := rm.New(rm.Config{})
	s := New(Config{Kernel: k, RM: m})
	m.SetHooks(s)
	return k, m, s
}

func TestCacheRefillChargedAfterInvoluntaryPreemption(t *testing.T) {
	// A long task preempted each 10ms resumes cold: its effective
	// progress per period drops by one refill per resumption. A body
	// tracking its own productive work sees less than its grant.
	_, m, s := newCacheSystem(200) // 200us refill
	var productive ticks.Ticks
	long := mustAdmit(t, m, &task.Task{
		Name: "long",
		List: task.SingleLevel(30*ms, 15*ms, "L"),
		Body: task.BodyFunc(func(ctx task.RunContext) task.RunResult {
			productive += ctx.Span
			return task.RunResult{Used: ctx.Span, Op: task.OpRanOut}
		}),
	})
	mustAdmit(t, m, &task.Task{
		Name: "short", List: task.SingleLevel(10*ms, 5*ms, "S"), Body: task.PeriodicWork(5 * ms),
	})
	s.RunUntil(300 * ms)
	st, _ := s.Stats(long)
	// The grant is still fully delivered (the guarantee holds)...
	if st.UsedTicks != st.GrantedTicks {
		t.Errorf("used %v of granted %v", st.UsedTicks, st.GrantedTicks)
	}
	if st.Misses != 0 {
		t.Errorf("misses = %d", st.Misses)
	}
	// ...but part of it went to cache refills, not productive work.
	lost := st.UsedTicks - productive
	if lost == 0 {
		t.Fatal("no refill cost charged despite involuntary preemptions")
	}
	// Two preemption resumes per 30ms period x 10 periods = ~20
	// refills of 200us = ~4ms.
	if lost < 2*ms || lost > 6*ms {
		t.Errorf("refill cost = %v, want roughly 4ms", lost)
	}
}

func TestCooperativeTaskAvoidsRefill(t *testing.T) {
	// The same workload with controlled preemption: the task yields
	// at safe points, resumes warm, and loses (almost) nothing.
	_, m, s := newCacheSystem(200)
	var productive ticks.Ticks
	long := mustAdmit(t, m, &task.Task{
		Name: "long",
		List: task.SingleLevel(30*ms, 15*ms, "L"),
		Body: task.BodyFunc(func(ctx task.RunContext) task.RunResult {
			// Cooperative: yield voluntarily at the end of any slice.
			productive += ctx.Span
			return task.RunResult{Used: ctx.Span, Op: task.OpYield, Completed: true}
		}),
		ControlledPreemption: true,
	})
	mustAdmit(t, m, &task.Task{
		Name: "short", List: task.SingleLevel(10*ms, 5*ms, "S"), Body: task.PeriodicWork(5 * ms),
	})
	s.RunUntil(300 * ms)
	st, _ := s.Stats(long)
	lost := st.UsedTicks - productive
	if lost != 0 {
		t.Errorf("cooperative task lost %v to refills; voluntary yields resume warm", lost)
	}
}

func TestGraceDrainsGrantExactly(t *testing.T) {
	// Regression: a grace-period yield that consumes the task's last
	// remaining grant must move it off TimeRemaining, not leave an
	// empty allocation scheduled. Geometry: the long task reaches the
	// 20ms preemption point with 100us of grant left; its safe-point
	// spacing (200us, aligned) makes the grace yield consume at least
	// those 100us.
	k := sim.NewKernel(sim.Config{Seed: 1, Costs: sim.ZeroSwitchCosts()})
	m := rm.New(rm.Config{})
	s := New(Config{
		Kernel:         k,
		RM:             m,
		OverrideWindow: 1, // force the preemption instead of finishing
		GracePeriod:    200 * ticks.PerMicrosecond,
	})
	m.SetHooks(s)
	longCPU := 10*ms + 100*ticks.PerMicrosecond
	long := mustAdmit(t, m, &task.Task{
		Name:                 "long",
		List:                 task.SingleLevel(30*ms, longCPU, "L"),
		Body:                 task.CooperativeWork(longCPU, 200*ticks.PerMicrosecond),
		ControlledPreemption: true,
	})
	mustAdmit(t, m, &task.Task{
		Name: "short", List: task.SingleLevel(10*ms, 5*ms, "S"), Body: task.PeriodicWork(5 * ms),
	})
	s.RunUntil(ticks.PerSecond) // must not panic on a drained grant
	st, _ := s.Stats(long)
	if st.Misses != 0 {
		t.Errorf("long missed %d deadlines", st.Misses)
	}
	// Full delivery in every completed period; the horizon may cut
	// the final period short.
	if st.UsedTicks < st.GrantedTicks-longCPU {
		t.Errorf("long used %v of %v", st.UsedTicks, st.GrantedTicks)
	}
	auditClean(t, s)
}

func TestCacheRefillDisabledByDefault(t *testing.T) {
	costs := sim.ZeroSwitchCosts()
	if costs.CacheRefill() != 0 {
		t.Error("zero model should have no refill")
	}
	p := sim.PaperSwitchCosts()
	if p.CacheRefill() != 0 {
		t.Error("paper model leaves the refill off unless configured")
	}
	p.CacheRefillUS = 150
	if got := p.CacheRefill(); got != 150*ticks.PerMicrosecond {
		t.Errorf("refill = %v, want 150us", got)
	}
}
