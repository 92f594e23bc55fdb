package sched

import (
	"cmp"
	"fmt"
	"slices"
	"testing"

	"repro/internal/rm"
	"repro/internal/sim"
	"repro/internal/task"
	"repro/internal/ticks"
)

// The paper queues (DESIGN.md §4.5) are tags on the tasks: TimeRemaining
// is the set tagged qTimeRemaining, TimeExpired the set tagged
// qTimeExpired, OvertimeRequested the set with overtime set, each in
// (deadline, ID) order. The oracle here re-sorts the task table at
// every dispatch and holds the Scheduler's pick, and its queue tallies,
// to it.

// tallies reads the Scheduler's queue depths, the figures the
// sched.queue.* gauges publish.
func (s *Scheduler) tallies() [3]int { return [3]int{s.nRemaining, s.nExpired, s.nOvertime} }

// checkTallies fails the test unless the queue tallies equal counts of
// the tags over the task table.
func checkTallies(t *testing.T, s *Scheduler, when string) {
	t.Helper()
	var want [3]int
	for _, x := range s.byID {
		switch x.queue {
		case qTimeRemaining:
			want[0]++
		case qTimeExpired:
			want[1]++
		}
		if x.overtime {
			want[2]++
		}
	}
	if got := s.tallies(); got != want {
		t.Fatalf("%s: queue tallies (TimeRemaining, TimeExpired, OvertimeRequested) %v, the table counts %v", when, got, want)
	}
}

// auditClean fails the test unless s audits clean and its tallies agree
// with its tags.
func auditClean(t *testing.T, s *Scheduler) {
	t.Helper()
	if f := s.Audit().Findings; len(f) != 0 {
		t.Errorf("audit: %q", f)
	}
	checkTallies(t, s, "end of run")
}

// firstOn is the first task of the table's subset in, sorted afresh on
// (deadline, ID), nil when the subset is empty, and whether the next
// task of the subset has the same deadline.
func firstOn(s *Scheduler, in func(*tcb) bool) (*tcb, bool) {
	var q []*tcb
	for _, x := range s.byID {
		if in(x) {
			q = append(q, x)
		}
	}
	slices.SortFunc(q, func(a, b *tcb) int {
		return cmp.Or(cmp.Compare(a.deadline, b.deadline), cmp.Compare(a.id, b.id))
	})
	if len(q) == 0 {
		return nil, false
	}
	return q[0], len(q) > 1 && q[1].deadline == q[0].deadline
}

// pickObserver checks every granted and overtime dispatch against
// firstOn. A dispatch is reported after its body ran and before what
// the body did is resolved, so the dispatched task still carries the
// tag it was picked by.
type pickObserver struct {
	NopObserver
	t                       *testing.T
	s                       *Scheduler
	granted, overtime, ties int
}

func (o *pickObserver) OnDispatch(id task.ID, _ string, from, _ ticks.Ticks, kind DispatchKind, _ int) {
	when := fmt.Sprintf("%v dispatch of task %d at %v", kind, id, from)
	switch kind {
	case DispatchGranted:
		o.granted++
		want, tie := firstOn(o.s, func(x *tcb) bool { return x.queue == qTimeRemaining })
		if tie {
			o.ties++
		}
		if want == nil || want.id != id {
			o.t.Fatalf("%s: the first task on TimeRemaining by (deadline, ID) is %v", when, want)
		}
	case DispatchOvertime:
		o.overtime++
		if x, _ := firstOn(o.s, func(x *tcb) bool { return x.queue == qTimeRemaining }); x != nil {
			o.t.Fatalf("%s: task %d is still tagged TimeRemaining", when, x.id)
		}
		want, tie := firstOn(o.s, func(x *tcb) bool { return x.overtime })
		if tie {
			o.ties++
		}
		if want == nil || want.id != id {
			o.t.Fatalf("%s: the first task on OvertimeRequested by (deadline, ID) is %v", when, want)
		}
	default:
		return
	}
	checkTallies(o.t, o.s, when)
}

// TestPickIsEarliestDeadline churns seeded task sets — admissions,
// terminations and blocking, exiting and overtime-hungry bodies — whose
// periods are 10 or 20 ms, so deadlines tie all the time and the ID
// tie-break decides many picks.
func TestPickIsEarliestDeadline(t *testing.T) {
	var granted, overtime, ties int
	for seed := uint64(1); seed <= 40; seed++ {
		rng := sim.NewRNG(seed)
		costs := sim.ZeroSwitchCosts()
		if seed%2 == 0 {
			costs = sim.PaperSwitchCosts()
		}
		k := sim.NewKernel(sim.Config{Seed: seed, Costs: costs})
		m := rm.New(rm.Config{})
		obs := &pickObserver{t: t}
		s := New(Config{Kernel: k, RM: m, Observer: obs})
		m.SetHooks(s)
		obs.s = s
		admit := func() {
			period := ticks.Ticks(10+10*rng.Intn(2)) * ms
			cpu := period * ticks.Ticks(2+rng.Intn(12)) / 100
			var body task.Body
			switch rng.Intn(5) {
			case 0:
				body = task.Busy()
			case 1:
				body = task.PeriodicWork(cpu)
			case 2:
				body = task.WorkThenBlock(cpu/2+1, ticks.Ticks(rng.Intn(25))*ms)
			case 3:
				body = task.FinitePeriods(cpu, 1+rng.Intn(6))
			default:
				body = task.YieldAll()
			}
			_, _ = m.RequestAdmittance(&task.Task{Name: "t", List: task.SingleLevel(period, cpu, "T"), Body: body})
		}
		for range 3 + rng.Intn(5) {
			admit()
		}
		for range 6 {
			at := ticks.Ticks(1+rng.Intn(180)) * ms
			if rng.Intn(2) == 0 {
				k.At(at, admit)
			} else {
				id := task.ID(1 + rng.Intn(8))
				k.At(at, func() { _ = m.Remove(id) })
			}
		}
		s.RunUntil(200 * ms)
		auditClean(t, s)
		granted += obs.granted
		overtime += obs.overtime
		ties += obs.ties
	}
	if granted == 0 || overtime == 0 || ties == 0 {
		t.Fatalf("the churn checked %d granted and %d overtime dispatches, %d of them picked on a tied deadline; want all three", granted, overtime, ties)
	}
}
