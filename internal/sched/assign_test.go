package sched

import (
	"fmt"
	"slices"
	"strings"
	"testing"

	"repro/internal/rm"
	"repro/internal/sim"
	"repro/internal/task"
	"repro/internal/ticks"
)

// TestAssignGrantRunsSporadicInPeriodicContext covers the general
// §5.1 assignment interface: a periodic task donates 12ms of its
// grant to a sporadic task; the sporadic work runs inside the
// periodic task's granted windows, spanning periods, and the periodic
// task resumes afterwards.
func TestAssignGrantRunsSporadicInPeriodicContext(t *testing.T) {
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
				ownRan += ctx.Span
				return task.RunResult{Used: ctx.Span, Op: task.OpRanOut}
			}
			ownRan += left
			return task.RunResult{Used: left, Op: task.OpYield, Completed: true}
		}),
	})
	other := mustAdmit(t, m, &task.Task{
		Name: "other",
		List: task.SingleLevel(10*ms, 4*ms, "Other"),
		Body: task.PeriodicWork(4 * ms),
	})
	var spRan ticks.Ticks
	sp := s.AddSporadic("burst", task.BodyFunc(func(ctx task.RunContext) task.RunResult {
		spRan += ctx.Span
		return task.RunResult{Used: ctx.Span, Op: task.OpRanOut}
	}))
	s.RunUntil(1) // start tasks
	if err := s.AssignGrant(donor, sp, 12*ms); err != nil {
		t.Fatal(err)
	}
	s.RunUntil(100 * ms)

	if spRan != 12*ms {
		t.Errorf("sporadic consumed %v of the 12ms assignment", spRan)
	}
	dst, _ := s.Stats(donor)
	// Bookkeeping stays with the donor: its granted usage includes
	// the sporadic's 12ms plus its own runs after the assignment.
	if dst.UsedTicks != dst.GrantedTicks {
		t.Errorf("donor used %v of granted %v", dst.UsedTicks, dst.GrantedTicks)
	}
	if ownRan == 0 {
		t.Error("donor's own body never resumed after the assignment")
	}
	if ownRan+spRan != dst.UsedTicks {
		t.Errorf("own %v + assigned %v != donor used %v", ownRan, spRan, dst.UsedTicks)
	}
	// Guarantees elsewhere unaffected.
	ost, _ := s.Stats(other)
	if ost.Misses != 0 {
		t.Errorf("other task missed %d deadlines during assignment", ost.Misses)
	}
	if dst.Misses != 0 {
		t.Errorf("donor missed %d deadlines", dst.Misses)
	}
}

func TestAssignGrantEndsWhenSporadicBlocks(t *testing.T) {
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
	sp := s.AddSporadic("blocker", task.BodyFunc(func(ctx task.RunContext) task.RunResult {
		// Use 1ms then block forever.
		u := ticks.Min(ctx.Span, ms)
		return task.RunResult{Used: u, Op: task.OpBlock}
	}))
	s.RunUntil(1)
	if err := s.AssignGrant(donor, sp, 20*ms); err != nil {
		t.Fatal(err)
	}
	s.RunUntil(50 * ms)
	st, _ := s.SporadicStatsOf(sp)
	if st.UsedTicks != ms {
		t.Errorf("blocked sporadic consumed %v, want 1ms", st.UsedTicks)
	}
	// "when the sporadic thread blocks, the Scheduler returns to the
	// periodic task": the donor runs its own body immediately after.
	if ownRan == 0 {
		t.Error("donor did not resume after the sporadic blocked")
	}
}

func TestAssignGrantValidation(t *testing.T) {
	_, m, s := newSystem(0, sim.ZeroSwitchCosts())
	donor := mustAdmit(t, m, &task.Task{
		Name: "donor", List: task.SingleLevel(10*ms, 5*ms, "D"), Body: task.PeriodicWork(5 * ms),
	})
	ss := mustAdmit(t, m, &task.Task{
		Name: "ss", List: task.SingleLevel(10*ms, 1*ms, "SS"),
		Body: ServerBody(false),
	})
	sp := s.AddSporadic("x", task.Busy())
	s.RunUntil(1)
	if err := s.AssignGrant(999, sp, ms); err == nil {
		t.Error("unknown donor accepted")
	}
	if err := s.AssignGrant(donor, 999, ms); err == nil {
		t.Error("unknown sporadic accepted")
	}
	if err := s.AssignGrant(donor, sp, 0); err == nil {
		t.Error("zero amount accepted")
	}
	if err := s.AssignGrant(ss, sp, ms); err == nil {
		t.Error("assigning from the Sporadic Server itself accepted")
	}
	if err := s.AssignGrant(donor, sp, ms); err != nil {
		t.Errorf("valid assignment rejected: %v", err)
	}
}

func TestAssignGrantDefersPeriodCallback(t *testing.T) {
	// While an assignment is active across a period boundary, the
	// donor's NewPeriod callback arrives when its own body resumes,
	// not during the assignment.
	_, m, s := newSystem(0, sim.ZeroSwitchCosts())
	newPeriods := 0
	donor := mustAdmit(t, m, &task.Task{
		Name: "donor",
		List: task.SingleLevel(10*ms, 5*ms, "Donor"),
		Body: task.BodyFunc(func(ctx task.RunContext) task.RunResult {
			if ctx.NewPeriod {
				newPeriods++
			}
			return task.RunResult{Used: ctx.Span, Op: task.OpYield, Completed: true}
		}),
	})
	sp := s.AddSporadic("burst", task.BodyFunc(func(ctx task.RunContext) task.RunResult {
		return task.RunResult{Used: ctx.Span, Op: task.OpRanOut}
	}))
	s.RunUntil(1)
	if err := s.AssignGrant(donor, sp, 7*ms); err != nil { // spans two periods
		t.Fatal(err)
	}
	s.RunUntil(40 * ms)
	// Periods at 0 (consumed before assignment at t=1? no: RunUntil(1)
	// delivered the first callback), then assignment covers most of
	// periods 1-2; callbacks resume after. The donor must keep
	// receiving callbacks once the assignment drains.
	if newPeriods < 2 {
		t.Errorf("donor saw %d period callbacks; deferral must not lose them", newPeriods)
	}
}

// sporadicDispatches records the stretches a sporadic body ran for,
// whatever name they were reported under.
type sporadicDispatches struct {
	NopObserver
	log *[]string
}

func (o sporadicDispatches) OnDispatch(_ task.ID, _ string, from, to ticks.Ticks, kind DispatchKind, _ int) {
	if kind == DispatchSporadic {
		*o.log = append(*o.log, fmt.Sprintf("ran %v..%v", from, to))
	}
}

// TestSporadicOutcomesMatchUnderServerAndAssignGrant holds §5.1 to its
// word: the Sporadic Server is a client of the general grant-assignment
// interface, so one assignment of the same size, on a host with the
// same grant, must treat the sporadic task identically whichever of the
// two made it — the same spans offered at the same instants, the same
// stretches reported, the same accounting, and the same end: a yield, a
// timed block, an exit or an exhausted slice. (An assignment that is
// cut off by the end of the host's grant is where the two part by
// design: the server asks for overtime to carry on, a donor waits for
// its next period. Every case here ends inside one 5ms grant.)
func TestSporadicOutcomesMatchUnderServerAndAssignGrant(t *testing.T) {
	cases := []struct {
		name   string
		amount ticks.Ticks // the assignment, and the server's slice
		// outcome is what the body answers while the assignment under
		// test is open.
		outcome func(ctx task.RunContext) task.RunResult
		// check inspects the sporadic task at 15ms, after a timed block
		// has expired and before the host's next period.
		check func(t *testing.T, s *Scheduler, sp SporadicID)
	}{
		{"yield", 7 * ms, func(ctx task.RunContext) task.RunResult {
			return task.RunResult{Used: ms, Op: task.OpYield}
		}, nil},
		{"timed block", 7 * ms, func(ctx task.RunContext) task.RunResult {
			return task.RunResult{Used: ms, Op: task.OpBlock, BlockFor: 3 * ms}
		}, func(t *testing.T, s *Scheduler, sp SporadicID) {
			if s.sporadics[0].blocked {
				t.Error("sporadic task still blocked after its 3ms block expired")
			}
		}},
		{"exit", 7 * ms, func(ctx task.RunContext) task.RunResult {
			return task.RunResult{Used: ms, Op: task.OpExit}
		}, func(t *testing.T, s *Scheduler, sp SporadicID) {
			if _, ok := s.SporadicStatsOf(sp); ok {
				t.Error("exited sporadic task still queued")
			}
		}},
		{"slice exhausted", 3 * ms, func(ctx task.RunContext) task.RunResult {
			return task.RunResult{Used: ctx.Span, Op: task.OpRanOut}
		}, nil},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			run := func(server bool) []string {
				var log []string
				k := sim.NewKernel(sim.Config{Seed: 1, Costs: sim.ZeroSwitchCosts()})
				m := rm.New(rm.Config{})
				s := New(Config{Kernel: k, RM: m, SporadicSlice: tc.amount, Observer: sporadicDispatches{log: &log}})
				m.SetHooks(s)
				// The host does no work of its own, so its accounting is
				// the assignment's.
				body := task.Body(task.BodyFunc(func(task.RunContext) task.RunResult {
					return task.RunResult{Op: task.OpYield, Completed: true}
				}))
				if server {
					body = ServerBody(false)
				}
				host := mustAdmit(t, m, &task.Task{Name: "host", List: task.SingleLevel(10*ms, 5*ms, "Host"), Body: body})
				s.RunUntil(1) // the host's first period starts and is yielded empty
				var used ticks.Ticks
				over := false
				sp := s.AddSporadic("x", task.BodyFunc(func(ctx task.RunContext) task.RunResult {
					if over {
						// The assignment under test has ended; stay out
						// of the way of whatever the server does next.
						return task.RunResult{Op: task.OpBlock}
					}
					res := tc.outcome(ctx)
					used += res.Used
					over = res.Op != task.OpRanOut || used == tc.amount
					log = append(log, fmt.Sprintf("offered %v at %v: used %v, %v", ctx.Span, ctx.Now, res.Used, res.Op))
					return res
				}))
				if !server {
					if err := s.AssignGrant(host, sp, tc.amount); err != nil {
						t.Fatal(err)
					}
				}
				s.RunUntil(15 * ms)
				if tc.check != nil {
					tc.check(t, s, sp)
				}
				s.RunUntil(60 * ms)
				if !over {
					t.Errorf("server=%v: the assignment never ended", server)
				}
				if st, ok := s.SporadicStatsOf(sp); ok {
					log = append(log, fmt.Sprintf("sporadic used %v", st.UsedTicks))
				}
				hst, _ := s.Stats(host)
				log = append(log, fmt.Sprintf("host used %v, missed %d", hst.UsedTicks, hst.Misses))
				for _, f := range s.Audit().Findings {
					t.Errorf("server=%v: audit: %s", server, f)
				}
				return log
			}
			assigned, served := run(false), run(true)
			if !slices.Equal(assigned, served) {
				t.Errorf("transcripts differ\nAssignGrant:\n  %s\nSporadic Server:\n  %s",
					strings.Join(assigned, "\n  "), strings.Join(served, "\n  "))
			}
			t.Logf("\n  %s", strings.Join(assigned, "\n  "))
		})
	}
}
