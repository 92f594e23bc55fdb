package trace

import (
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/sched"
	"repro/internal/sim"
	"repro/internal/task"
	"repro/internal/ticks"
)

// newRun assembles a zero-switch-cost Distributor recording into rec.
func newRun(rec *Recorder, reservePercent int64) *core.Distributor {
	zero := sim.ZeroSwitchCosts()
	return core.New(core.Config{SwitchCosts: &zero, InterruptReservePercent: reservePercent, Observer: rec})
}

// analyzeRun runs d for dur and analyzes what rec recorded, failing t
// wherever a task's offline overtime differs from the Scheduler's own
// count — the two read one definition.
func analyzeRun(t *testing.T, d *core.Distributor, rec *Recorder, dur ticks.Ticks) Report {
	t.Helper()
	d.Run(dur)
	rep := Analyze(rec.Export())
	for _, tr := range rep.Tasks {
		if st, _ := d.Stats(tr.ID); tr.OvertimeTicks != st.OvertimeTicks {
			t.Errorf("%s: Analyze overtime %v, TaskStats.OvertimeTicks %v", tr.Name, tr.OvertimeTicks, st.OvertimeTicks)
		}
	}
	return rep
}

// runForAnalysis drives a two-task schedule for a second and returns
// its analysis.
func runForAnalysis(t *testing.T, rec *Recorder) Report {
	t.Helper()
	d := newRun(rec, 0)
	if _, err := d.RequestAdmittance(&task.Task{
		Name: "short", List: task.SingleLevel(10*ms, 5*ms, "S"), Body: task.PeriodicWork(5 * ms),
	}); err != nil {
		t.Fatal(err)
	}
	if _, err := d.RequestAdmittance(&task.Task{
		Name: "long", List: task.SingleLevel(30*ms, 10*ms, "L"), Body: task.PeriodicWork(10 * ms),
	}); err != nil {
		t.Fatal(err)
	}
	return analyzeRun(t, d, rec, ticks.PerSecond)
}

func TestAnalyzeBasics(t *testing.T) {
	r := New()
	// Task 1: two periods, preempted by task 2 in the second.
	r.OnPeriodStart(1, 0, 10*ms, 0, 3*ms)
	r.OnDispatch(1, "a", 0, 3*ms, sched.DispatchGranted, 0)
	r.OnPeriodStart(1, 10*ms, 20*ms, 1, 2*ms)
	r.OnDispatch(1, "a", 10*ms, 11*ms, sched.DispatchGranted, 1)
	r.OnDispatch(2, "b", 11*ms, 15*ms, sched.DispatchOvertime, 0)
	r.OnDispatch(1, "a", 15*ms, 16*ms, sched.DispatchGranted, 1)
	r.OnDispatch(1, "a", 16*ms, 18*ms, sched.DispatchOvertime, 1)
	// Task 2: one period, clean.
	r.OnPeriodStart(2, 0, 20*ms, 0, 5*ms)
	r.OnDispatch(2, "b", 3*ms, 8*ms, sched.DispatchGranted, 0)

	rep := Analyze(r.Export())
	if len(rep.Tasks) != 2 {
		t.Fatalf("tasks = %d", len(rep.Tasks))
	}
	a := rep.Tasks[0]
	if a.Periods != 2 || a.GrantedTicks != 5*ms || a.OvertimeTicks != 2*ms {
		t.Errorf("a = %+v", a)
	}
	if a.Preemptions != 1 {
		t.Errorf("a preemptions = %d, want 1 (task 2 runs between its period-2 slices)", a.Preemptions)
	}
	// Completions at 3ms and 16ms: worst latency 13ms.
	if a.WorstLatency != 13*ms {
		t.Errorf("a worst latency = %v, want 13ms", a.WorstLatency)
	}
	if len(a.Levels) != 2 || a.Levels[0] != 0 || a.Levels[1] != 1 {
		t.Errorf("a levels = %v", a.Levels)
	}
	b := rep.Tasks[1]
	if b.Preemptions != 0 || b.GrantedTicks != 5*ms {
		t.Errorf("b = %+v", b)
	}
	if rep.Span != 20*ms {
		t.Errorf("span = %v, want 20ms", rep.Span)
	}
	if a.LatencyP50 != 13*ms || a.LatencyP99 != 13*ms {
		t.Errorf("percentiles = %v/%v, want 13ms (single gap)", a.LatencyP50, a.LatencyP99)
	}
	s := rep.String()
	if !strings.Contains(s, "a") || !strings.Contains(s, "lat-max") {
		t.Errorf("report:\n%s", s)
	}
}

// TestAnalyzeLatencyPercentiles pins nearest rank: of four gaps the
// median is the second smallest, not the third.
func TestAnalyzeLatencyPercentiles(t *testing.T) {
	r := New()
	for i, end := range []ticks.Ticks{2 * ms, 15 * ms, 24 * ms, 35 * ms, 42 * ms} { // gaps 13, 9, 11, 7
		start := ticks.Ticks(i) * 10 * ms
		r.OnPeriodStart(1, start, start+10*ms, 0, 5*ms)
		r.OnDispatch(1, "t", start, end, sched.DispatchGranted, 0)
	}
	tr := Analyze(r.Export()).Tasks[0]
	if tr.LatencyP50 != 9*ms || tr.LatencyP99 != 13*ms || tr.WorstLatency != 13*ms {
		t.Errorf("p50/p99/max = %v/%v/%v, want 9ms/13ms/13ms", tr.LatencyP50, tr.LatencyP99, tr.WorstLatency)
	}
}

// TestAnalyzeSporadicServerOvertime: the sporadic task's slices sit
// inside the server's own, so the server's overtime is its own slices'
// — 8 ms of every 10 ms period — not that plus the nested time.
func TestAnalyzeSporadicServerOvertime(t *testing.T) {
	rec := New()
	d := newRun(rec, 0)
	ss, err := d.AddSporadicServer("server", task.SingleLevel(10*ms, 2*ms, "SS"), true)
	if err != nil {
		t.Fatal(err)
	}
	d.AddSporadic("soaker", task.BusySilent())
	rep := analyzeRun(t, d, rec, 100*ms)
	if len(rep.Tasks) != 1 || rep.Tasks[0].ID != ss {
		t.Fatalf("tasks = %+v, want the server alone", rep.Tasks)
	}
	if got := rep.Tasks[0].OvertimeTicks; got != 80*ms {
		t.Errorf("server overtime = %v, want 80ms", got)
	}
}

// TestAnalyzeInterruptSplitsAreNotPreemptions: a lone task split by a
// 1 ms interrupt source is never preempted — no other task runs.
func TestAnalyzeInterruptSplitsAreNotPreemptions(t *testing.T) {
	rec := New()
	d := newRun(rec, 4)
	if _, err := d.RequestAdmittance(&task.Task{
		Name: "lone", List: task.SingleLevel(10*ms, 5*ms, "L"), Body: task.PeriodicWork(5 * ms),
	}); err != nil {
		t.Fatal(err)
	}
	if err := d.AddInterruptLoad(ms, 10*ticks.PerMicrosecond); err != nil {
		t.Fatal(err)
	}
	rep := analyzeRun(t, d, rec, 100*ms)
	if tr := rep.Tasks[0]; tr.Preemptions != 0 {
		t.Errorf("preempt = %d, want 0", tr.Preemptions)
	}
	if len(rec.Slices) <= 2*rep.Tasks[0].Periods {
		t.Errorf("%d slices in %d periods: the interrupts split nothing", len(rec.Slices), rep.Tasks[0].Periods)
	}
}

// TestAnalyzeGraceSliceIsNotAPreemption: a controlled task whose grant
// runs out is offered a §5.6 grace slice right after its own; that
// slice continues the task, it does not resume it.
func TestAnalyzeGraceSliceIsNotAPreemption(t *testing.T) {
	rec := New()
	d := newRun(rec, 0)
	if _, err := d.RequestAdmittance(&task.Task{
		Name: "coop", List: task.SingleLevel(10*ms, 5*ms, "C"),
		Body: task.CooperativeWork(8*ms, 50*ticks.PerMicrosecond), ControlledPreemption: true,
	}); err != nil {
		t.Fatal(err)
	}
	rep := analyzeRun(t, d, rec, 100*ms)
	graces := 0
	for _, s := range rec.Slices {
		if s.Kind == sched.DispatchGrace {
			graces++
		}
	}
	if graces == 0 {
		t.Fatal("no grace slice recorded")
	}
	if tr := rep.Tasks[0]; tr.Preemptions != 0 {
		t.Errorf("preempt = %d, want 0 (%d grace slices)", tr.Preemptions, graces)
	}
}

func TestAnalyzeLatencyBoundOnRealRun(t *testing.T) {
	// End-to-end: analyze a real schedule and check the §4.2 bound
	// 2·period − 2·CPU on the measured worst latency.
	rec := New()
	rep := runForAnalysis(t, rec)
	for _, tr := range rep.Tasks {
		var period, cpu ticks.Ticks
		switch tr.Name {
		case "short":
			period, cpu = 10*ms, 5*ms
		case "long":
			period, cpu = 30*ms, 10*ms
		default:
			continue
		}
		bound := 2*period - 2*cpu
		if tr.WorstLatency > bound {
			t.Errorf("%s worst latency %v exceeds bound %v", tr.Name, tr.WorstLatency, bound)
		}
		if tr.WorstLatency == 0 {
			t.Errorf("%s has no measured latency", tr.Name)
		}
	}
	if rep.Misses != 0 {
		t.Errorf("misses = %d", rep.Misses)
	}
}
