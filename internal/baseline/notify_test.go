package baseline

import (
	"testing"

	"repro/internal/core"
	"repro/internal/sim"
	"repro/internal/task"
	"repro/internal/ticks"
)

func TestNotifierUnderloadClean(t *testing.T) {
	k := kernel()
	nf := NewNotifier(k, 20*ms)
	nf.Add("a", 10*ms, []ticks.Ticks{4 * ms, 1 * ms})
	nf.Add("b", 10*ms, []ticks.Ticks{4 * ms, 1 * ms})
	nf.RunUntil(ticks.PerSecond)
	for _, n := range []string{"a", "b"} {
		st, _ := nf.Stats(n)
		if st.MissedPeriods != 0 {
			t.Errorf("%s missed %d periods in underload", n, st.MissedPeriods)
		}
	}
}

func TestNotifierOverloadMissesDuringRoundTrip(t *testing.T) {
	// Two resident 40% tasks; a third 40% task arrives at 100ms. The
	// notification to shed takes 30ms to land, and during that window
	// EDF at 120% demand misses deadlines — the paper's problem 1.
	k := kernel()
	nf := NewNotifier(k, 30*ms)
	menu := []ticks.Ticks{4 * ms, 1 * ms}
	nf.Add("a", 10*ms, menu)
	nf.Add("b", 10*ms, menu)
	k.At(100*ms, func() { nf.Add("c", 10*ms, menu) })
	nf.RunUntil(ticks.PerSecond)

	var missed, totalAfter int64
	for _, n := range []string{"a", "b", "c"} {
		st, _ := nf.Stats(n)
		missed += st.MissedPeriods
		totalAfter += st.Periods
	}
	if missed == 0 {
		t.Error("no misses during the notification round trip; problem 1 not reproduced")
	}
	// Problem 2: the shed target is the arriving task, by accident of
	// timing — the residents keep their maxima.
	for _, n := range []string{"a", "b"} {
		st, _ := nf.Stats(n)
		if st.UsedTicks < 390*ms {
			t.Errorf("resident %s used %v; it should never have shed", n, st.UsedTicks)
		}
	}
	cs, _ := nf.Stats("c")
	// c shed to 1ms after the round trip: far less CPU than the
	// residents despite identical requirements.
	if cs.UsedTicks >= 300*ms {
		t.Errorf("latest arrival used %v; it should carry the whole degradation", cs.UsedTicks)
	}

	// The same scenario under the Resource Distributor: zero misses,
	// and the degradation is a policy decision made *before* any
	// deadline is at risk.
	zero := sim.ZeroSwitchCosts()
	d := core.New(core.Config{SwitchCosts: &zero})
	list := task.ResourceList{
		{Period: 10 * ms, CPU: 4 * ms, Fn: "Hi"},
		{Period: 10 * ms, CPU: 1 * ms, Fn: "Lo"},
	}
	mkBody := func() task.Body {
		return task.BodyFunc(func(ctx task.RunContext) task.RunResult {
			return task.RunResult{Used: ctx.Span, Op: task.OpYield, Completed: true}
		})
	}
	var ids []task.ID
	for _, n := range []string{"a", "b"} {
		id, err := d.RequestAdmittance(&task.Task{Name: n, List: list, Body: mkBody()})
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, id)
	}
	d.At(100*ms, func() {
		id, err := d.RequestAdmittance(&task.Task{Name: "c", List: list, Body: mkBody()})
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, id)
	})
	d.Run(ticks.PerSecond)
	for _, id := range ids {
		st, _ := d.Stats(id)
		if st.Misses != 0 {
			t.Errorf("RD task %d missed %d deadlines in the identical scenario", id, st.Misses)
		}
	}
}
