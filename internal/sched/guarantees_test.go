package sched

import (
	"testing"

	"repro/internal/rm"
	"repro/internal/sim"
	"repro/internal/task"
	"repro/internal/ticks"
)

// This file tests the five scheduling guarantees the paper states
// verbatim at the end of §4.2:
//
//  1. The task will receive a grant from the Resource List supplied
//     by the application.
//  2. The grant will be delivered in each period.
//  3. Unless the task has the smallest CPU requirement in the
//     system, it may be preempted each period.
//  4. The grant will not change mid-period.
//  5. The task will not be involuntarily terminated.
//
// Guarantee 4 is covered by TestGrantChangeAppliesAtPeriodBoundary;
// the others get explicit tests here.

// guaranteeObserver tracks dispatch slices per task per period.
type guaranteeObserver struct {
	NopObserver
	preemptions map[task.ID]int // granted slices beyond the first, per period
	curPeriod   map[task.ID]int
	slices      map[task.ID]int
}

func newGuaranteeObserver() *guaranteeObserver {
	return &guaranteeObserver{
		preemptions: make(map[task.ID]int),
		curPeriod:   make(map[task.ID]int),
		slices:      make(map[task.ID]int),
	}
}

func (o *guaranteeObserver) OnPeriodStart(id task.ID, _, _ ticks.Ticks, _ int, _ ticks.Ticks) {
	o.curPeriod[id]++
	o.slices[id] = 0
}

func (o *guaranteeObserver) OnDispatch(id task.ID, _ string, _, _ ticks.Ticks, kind DispatchKind, _ int) {
	if kind != DispatchGranted {
		return
	}
	o.slices[id]++
	if o.slices[id] > 1 {
		o.preemptions[id]++
	}
}

func TestGuarantee1GrantFromSuppliedList(t *testing.T) {
	// Every grant the scheduler runs under is one of the entries the
	// application supplied — even through overload transitions.
	k := sim.NewKernel(sim.Config{Costs: sim.ZeroSwitchCosts()})
	m := rm.New(rm.Config{})
	var grantsSeen []rm.Grant
	obs := &grantObserver{grants: &grantsSeen}
	s := New(Config{Kernel: k, RM: m, Observer: obs})
	m.SetHooks(s)

	list := task.UniformLevels(10*ms, "T", 80, 40, 20)
	id := mustAdmit(t, m, &task.Task{Name: "a", List: list, Body: task.Busy()})
	k.At(30*ms, func() {
		mustAdmitErrless(m, &task.Task{Name: "b", List: list, Body: task.Busy()})
	})
	s.RunUntil(100 * ms)

	for _, g := range grantsSeen {
		if g.Task != id {
			continue
		}
		found := false
		for _, e := range list {
			if e == g.Entry {
				found = true
			}
		}
		if !found {
			t.Errorf("granted entry %v is not in the supplied list", g.Entry)
		}
	}
	if len(grantsSeen) == 0 {
		t.Fatal("no grants observed")
	}
}

type grantObserver struct {
	NopObserver
	grants *[]rm.Grant
}

func (o *grantObserver) OnGrantApplied(id task.ID, g rm.Grant) {
	*o.grants = append(*o.grants, g)
}

func TestGuarantee2DeliveredEachPeriod(t *testing.T) {
	// Across 100 periods with competing tasks, every period delivers
	// the full grant (used == granted when the body always consumes).
	_, m, s := newSystem(0, sim.ZeroSwitchCosts())
	a := mustAdmit(t, m, &task.Task{
		Name: "a", List: task.SingleLevel(10*ms, 4*ms, "A"),
		Body: task.PeriodicWork(4 * ms),
	})
	mustAdmit(t, m, &task.Task{
		Name: "b", List: task.SingleLevel(7*ms, 3*ms, "B"), Body: task.Busy(),
	})
	s.RunUntil(ticks.PerSecond)
	st, _ := s.Stats(a)
	if st.Periods != 100 {
		t.Errorf("periods = %d, want 100", st.Periods)
	}
	if st.UsedTicks != 400*ms {
		t.Errorf("delivered %v, want 400ms (4ms x 100 periods)", st.UsedTicks)
	}
	if st.Misses != 0 {
		t.Errorf("misses = %d", st.Misses)
	}
}

func TestGuarantee3SmallestNeverPreempted(t *testing.T) {
	// The modem in Figure 3 has the smallest CPU requirement and is
	// never preempted: it always runs in one contiguous slice. The
	// larger tasks are preempted.
	obs := newGuaranteeObserver()
	k := sim.NewKernel(sim.Config{Costs: sim.ZeroSwitchCosts()})
	m := rm.New(rm.Config{})
	s := New(Config{Kernel: k, RM: m, Observer: obs})
	m.SetHooks(s)
	modem := mustAdmit(t, m, &task.Task{
		Name: "modem", List: task.SingleLevel(10*ms, 1*ms, "M"), Body: task.PeriodicWork(1 * ms),
	})
	big := mustAdmit(t, m, &task.Task{
		Name: "big", List: task.SingleLevel(30*ms, 20*ms, "B"), Body: task.PeriodicWork(20 * ms),
	})
	s.RunUntil(ticks.PerSecond)
	if obs.preemptions[modem] != 0 {
		t.Errorf("smallest task preempted %d times", obs.preemptions[modem])
	}
	if obs.preemptions[big] == 0 {
		t.Error("the 20ms/30ms task was never preempted by the 10ms-period task")
	}
}

func TestGuarantee5NeverInvoluntarilyTerminated(t *testing.T) {
	// Whatever overload arrives, an admitted task keeps running: the
	// Scheduler never drops a task except on its own OpExit or an
	// explicit Remove. Drive heavy churn and verify the first task
	// keeps accruing periods to the very end.
	k, m, s := newSystem(4, sim.ZeroSwitchCosts())
	first := mustAdmit(t, m, &task.Task{
		Name: "survivor", List: task.UniformLevels(10*ms, "S", 90, 50, 20, 5),
		Body: task.Busy(),
	})
	for i := 0; i < 8; i++ {
		i := i
		k.At(ticks.Ticks(i+1)*50*ms, func() {
			id, err := m.RequestAdmittance(&task.Task{
				Name: string(rune('a' + i)),
				List: task.UniformLevels(10*ms, "X", 60, 10),
				Body: task.Busy(),
			})
			if err != nil {
				return
			}
			if i%2 == 1 {
				k.At(k.Now()+40*ms, func() { _ = m.Remove(id) })
			}
		})
	}
	s.RunUntil(ticks.PerSecond)
	st, ok := s.Stats(first)
	if !ok {
		t.Fatal("survivor was dropped from the scheduler")
	}
	if st.Periods != 100 {
		t.Errorf("survivor ran %d periods, want all 100", st.Periods)
	}
	if st.Misses != 0 {
		t.Errorf("survivor missed %d deadlines", st.Misses)
	}
	if _, err := m.State(first); err != nil {
		t.Errorf("survivor left the Resource Manager: %v", err)
	}
}
