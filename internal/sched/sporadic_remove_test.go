package sched

import (
	"testing"

	"repro/internal/sim"
	"repro/internal/task"
	"repro/internal/ticks"
)

// TestRemoveSporadicMidAssignmentResumesPeriodicTask is the
// regression test for the dangling-assignment bug: RemoveSporadic
// used to clear only Sporadic-Server slices, so a sporadic task
// removed while holding a general §5.1 AssignGrant assignment on a
// non-server periodic task kept running inside that task's dispatches
// until the assignment drained. Removal must end the assignment at
// once and resume the periodic task's own body.
func TestRemoveSporadicMidAssignmentResumesPeriodicTask(t *testing.T) {
	_, m, s := newSystem(0, sim.ZeroSwitchCosts())
	var ownRan ticks.Ticks
	donor := mustAdmit(t, m, &task.Task{
		Name: "donor",
		List: task.SingleLevel(10*ms, 5*ms, "Donor"),
		Body: task.BodyFunc(func(ctx task.RunContext) task.RunResult {
			left := 5*ms - ctx.UsedThisPeriod
			if left <= 0 {
				return task.RunResult{Op: task.OpYield, Completed: true}
			}
			if left > ctx.Span {
				left = ctx.Span
			}
			ownRan += left
			return task.RunResult{Used: left, Op: task.OpYield, Completed: true}
		}),
	})
	var spRan ticks.Ticks
	sp := s.AddSporadic("burst", task.BodyFunc(func(ctx task.RunContext) task.RunResult {
		spRan += ctx.Span
		return task.RunResult{Used: ctx.Span, Op: task.OpRanOut}
	}))
	s.RunUntil(1) // deliver the initial grant
	if err := s.AssignGrant(donor, sp, 50*ms); err != nil {
		t.Fatal(err)
	}
	s.RunUntil(12 * ms) // assignment active and partially consumed
	spAtRemove, ownAtRemove := spRan, ownRan
	if spAtRemove == 0 {
		t.Fatal("test setup: the assignment never ran before removal")
	}
	s.RemoveSporadic(sp)
	s.RunUntil(100 * ms)

	if spRan != spAtRemove {
		t.Errorf("removed sporadic task kept consuming the assignment: %v before removal, %v after",
			spAtRemove, spRan)
	}
	if ownRan <= ownAtRemove {
		t.Errorf("donor's own body did not resume after removal (ran %v before, %v after)",
			ownAtRemove, ownRan)
	}
	if _, ok := s.SporadicStatsOf(sp); ok {
		t.Error("removed sporadic task still registered")
	}
	dst, _ := s.Stats(donor)
	if dst.Misses != 0 {
		t.Errorf("donor missed %d deadlines across the removal", dst.Misses)
	}
}

// TestRemoveSporadicClearsServerSlice covers the path that always
// worked — removal while the Sporadic Server's own round-robin slice
// is assigned — so the fixed clearSSAssignment keeps both behaviours.
func TestRemoveSporadicClearsServerSlice(t *testing.T) {
	_, m, s := newSystem(0, sim.ZeroSwitchCosts())
	mustAdmit(t, m, &task.Task{
		Name: "ss",
		List: task.SingleLevel(10*ms, 2*ms, "SS"),
		Body: ServerBody(false),
	})
	var ran ticks.Ticks
	sp := s.AddSporadic("job", task.BodyFunc(func(ctx task.RunContext) task.RunResult {
		ran += ctx.Span
		return task.RunResult{Used: ctx.Span, Op: task.OpRanOut}
	}))
	s.RunUntil(5 * ms) // the server has dispatched the job at least once
	atRemove := ran
	if atRemove == 0 {
		t.Fatal("test setup: the sporadic job never ran")
	}
	s.RemoveSporadic(sp)
	s.RunUntil(50 * ms)
	if ran != atRemove {
		t.Errorf("removed sporadic job kept running under the server: %v before, %v after", atRemove, ran)
	}
}
