package sched

import (
	"testing"

	"repro/internal/sim"
	"repro/internal/task"
	"repro/internal/ticks"
)

// Targeted tests for the less-travelled scheduler surfaces: sporadic
// wake/removal, the Deadline accessor, dispatch-kind strings, and the
// sporadic blocking paths.

func TestDispatchKindStrings(t *testing.T) {
	want := map[DispatchKind]string{
		DispatchGranted:  "granted",
		DispatchOvertime: "overtime",
		DispatchGrace:    "grace",
		DispatchSporadic: "sporadic",
		DispatchIdle:     "idle",
	}
	for k, s := range want {
		if k.String() != s {
			t.Errorf("%d.String() = %q, want %q", k, k.String(), s)
		}
	}
	if DispatchKind(42).String() == "" {
		t.Error("unknown kind should still render")
	}
}

func TestDeadlineAccessor(t *testing.T) {
	_, m, s := newSystem(0, sim.ZeroSwitchCosts())
	id := mustAdmit(t, m, &task.Task{
		Name: "t", List: task.SingleLevel(10*ms, 2*ms, "T"), Body: task.PeriodicWork(2 * ms),
	})
	s.RunUntil(1)
	dl, ok := s.Deadline(id)
	if !ok || dl != 10*ms {
		t.Errorf("Deadline = %v/%v, want 10ms", dl, ok)
	}
	if _, ok := s.Deadline(999); ok {
		t.Error("Deadline of unknown task reported ok")
	}
}

func TestIdleTicksAccessor(t *testing.T) {
	_, m, s := newSystem(0, sim.ZeroSwitchCosts())
	mustAdmit(t, m, &task.Task{
		Name: "t", List: task.SingleLevel(10*ms, 2*ms, "T"), Body: task.PeriodicWork(2 * ms),
	})
	s.RunUntil(100 * ms)
	if s.IdleTicks() != 80*ms {
		t.Errorf("IdleTicks = %v, want 80ms", s.IdleTicks())
	}
}

func TestSporadicBlockAndWake(t *testing.T) {
	_, m, s := newSystem(0, sim.ZeroSwitchCosts())
	ss := mustAdmit(t, m, &task.Task{
		Name: "ss", List: task.SingleLevel(10*ms, 2*ms, "SS"),
		Body: task.BodyFunc(func(task.RunContext) task.RunResult { panic("unused") }),
	})
	if err := s.AttachSporadicServer(ss, false); err != nil {
		t.Fatal(err)
	}
	var ran ticks.Ticks
	blockedOnce := false
	sp := s.AddSporadic("waiter", task.BodyFunc(func(ctx task.RunContext) task.RunResult {
		if !blockedOnce {
			blockedOnce = true
			u := ticks.Min(ctx.Span, ms)
			ran += u
			return task.RunResult{Used: u, Op: task.OpBlock} // until SporadicWake
		}
		ran += ctx.Span
		return task.RunResult{Used: ctx.Span, Op: task.OpRanOut}
	}))
	s.RunUntil(50 * ms)
	atBlock := ran
	if atBlock != ms {
		t.Fatalf("sporadic ran %v before blocking, want 1ms", atBlock)
	}
	s.SporadicWake(sp)
	s.RunUntil(100 * ms)
	if ran <= atBlock {
		t.Error("sporadic did not resume after SporadicWake")
	}
	s.RemoveSporadic(sp)
	before := ran
	s.RunUntil(150 * ms)
	if ran != before {
		t.Error("removed sporadic kept running")
	}
	// Removing and waking unknown IDs are no-ops.
	s.RemoveSporadic(999)
	s.SporadicWake(999)
	if _, ok := s.SporadicStatsOf(999); ok {
		t.Error("stats for unknown sporadic")
	}
}

func TestSporadicTimedBlock(t *testing.T) {
	// A sporadic task blocking with a wake time resumes on its own.
	_, m, s := newSystem(0, sim.ZeroSwitchCosts())
	ss := mustAdmit(t, m, &task.Task{
		Name: "ss", List: task.SingleLevel(10*ms, 2*ms, "SS"),
		Body: task.BodyFunc(func(task.RunContext) task.RunResult { panic("unused") }),
	})
	if err := s.AttachSporadicServer(ss, false); err != nil {
		t.Fatal(err)
	}
	runs := 0
	s.AddSporadic("napper", task.BodyFunc(func(ctx task.RunContext) task.RunResult {
		runs++
		u := ticks.Min(ctx.Span, ms/2)
		return task.RunResult{Used: u, Op: task.OpBlock, BlockFor: 20 * ms}
	}))
	s.RunUntil(100 * ms)
	if runs < 3 || runs > 6 {
		t.Errorf("napper ran %d times over 100ms with 20ms naps, want ~4-5", runs)
	}
}

func TestSporadicExitLeavesQueue(t *testing.T) {
	_, m, s := newSystem(0, sim.ZeroSwitchCosts())
	ss := mustAdmit(t, m, &task.Task{
		Name: "ss", List: task.SingleLevel(10*ms, 2*ms, "SS"),
		Body: task.BodyFunc(func(task.RunContext) task.RunResult { panic("unused") }),
	})
	if err := s.AttachSporadicServer(ss, false); err != nil {
		t.Fatal(err)
	}
	ran := 0
	sp := s.AddSporadic("oneshot", task.BodyFunc(func(ctx task.RunContext) task.RunResult {
		ran++
		return task.RunResult{Used: ticks.Min(ctx.Span, ms), Op: task.OpExit}
	}))
	s.RunUntil(100 * ms)
	if ran != 1 {
		t.Errorf("one-shot sporadic ran %d times, want 1", ran)
	}
	if _, ok := s.SporadicStatsOf(sp); ok {
		t.Error("exited sporadic still tracked")
	}
}

func TestAttachSporadicServerUnknown(t *testing.T) {
	_, _, s := newSystem(0, sim.ZeroSwitchCosts())
	if err := s.AttachSporadicServer(42, false); err == nil {
		t.Error("attaching to an unadmitted task accepted")
	}
}

func TestGraceBlockAndExitPaths(t *testing.T) {
	// Grace-period bodies that block or exit inside the grace window.
	for _, mode := range []task.Op{task.OpBlock, task.OpExit} {
		mode := mode
		_, m, s := newSystem(0, sim.ZeroSwitchCosts())
		body := task.BodyFunc(func(ctx task.RunContext) task.RunResult {
			if ctx.InGracePeriod() {
				return task.RunResult{Used: ticks.Min(ctx.Span, 10), Op: mode, BlockFor: 5 * ms}
			}
			return task.RunResult{Used: ctx.Span, Op: task.OpRanOut}
		})
		id := mustAdmit(t, m, &task.Task{
			Name: "g", List: task.SingleLevel(30*ms, 15*ms, "G"),
			Body: body, ControlledPreemption: true,
		})
		mustAdmit(t, m, &task.Task{
			Name: "short", List: task.SingleLevel(10*ms, 5*ms, "S"), Body: task.PeriodicWork(5 * ms),
		})
		s.RunUntil(200 * ms)
		st, ok := s.Stats(id)
		switch mode {
		case task.OpBlock:
			if !ok {
				t.Error("blocking grace task dropped")
			} else if st.Exceptions != 0 {
				t.Errorf("grace block counted %d exceptions", st.Exceptions)
			}
		case task.OpExit:
			if ok {
				t.Error("exiting grace task still scheduled")
			}
			if m.Has(id) {
				t.Error("the grace path's exit left the task in the Resource Manager")
			}
		}
	}
}
