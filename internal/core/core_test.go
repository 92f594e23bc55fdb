package core

import (
	"testing"

	"repro/internal/sched"
	"repro/internal/sim"
	"repro/internal/task"
	"repro/internal/ticks"
	"repro/internal/trace"
)

const ms = ticks.PerMillisecond

func zeroCosts() *sim.SwitchCosts {
	c := sim.ZeroSwitchCosts()
	return &c
}

// yieldAll consumes its entire grant each period then yields — the
// Figure 5 threads ("all yield when preemption is required").
func yieldAll() task.Body {
	return task.BodyFunc(func(ctx task.RunContext) task.RunResult {
		return task.RunResult{Used: ctx.Span, Op: task.OpYield, Completed: true}
	})
}

func TestQuickstartShape(t *testing.T) {
	d := New(Config{SwitchCosts: zeroCosts()})
	id, err := d.RequestAdmittance(&task.Task{
		Name: "mpeg",
		List: task.SingleLevel(900_000, 300_000, "FullDecompress"),
		Body: task.PeriodicWork(300_000),
	})
	if err != nil {
		t.Fatal(err)
	}
	d.Run(ticks.FromSeconds(1))
	st, ok := d.Stats(id)
	if !ok || st.Periods != 30 || st.Misses != 0 {
		t.Errorf("stats = %+v ok=%v, want 30 periods and 0 misses", st, ok)
	}
	if d.Now() != ticks.PerSecond {
		t.Errorf("Now = %v, want 1s", d.Now())
	}
}

func TestFigure5Staircase(t *testing.T) {
	// §6.5 second experiment: Sporadic Server (1% per 100ms) plus
	// five Table 6 threads started 20ms apart under a 4% interrupt
	// reserve. Thread 2's per-period allocation steps 9 -> 4 -> 3 ->
	// 2 -> 2 ms.
	rec := trace.New()
	d := New(Config{
		SwitchCosts:             zeroCosts(),
		InterruptReservePercent: 4,
		Observer:                rec,
	})
	if _, err := d.AddSporadicServer("sporadic", task.SingleLevel(2_700_000, 27_000, "SporadicServer"), true); err != nil {
		t.Fatal(err)
	}
	list := task.UniformLevels(10*ms, "BusyLoop", 90, 80, 70, 60, 50, 40, 30, 20, 10)
	ids := make([]task.ID, 5)
	for i := 0; i < 5; i++ {
		i := i
		at := ticks.Ticks(i) * 20 * ms
		d.At(at, func() {
			id, err := d.RequestAdmittance(&task.Task{
				Name: string(rune('2' + i)),
				List: list,
				Body: yieldAll(),
			})
			if err != nil {
				t.Errorf("thread %d denied: %v", i+2, err)
				return
			}
			ids[i] = id
		})
	}
	d.Run(200 * ms)

	// Thread 2's allocation staircase, sampled from its period starts.
	series := rec.AllocationSeries(ids[0])
	if len(series) == 0 {
		t.Fatal("no periods recorded for thread 2")
	}
	wantAt := []struct {
		at   ticks.Ticks
		cpu  ticks.Ticks
		desc string
	}{
		{10 * ms, 9 * ms, "alone"},
		{30 * ms, 4 * ms, "two threads"},
		{50 * ms, 3 * ms, "three threads"},
		{70 * ms, 2 * ms, "four threads"},
		{90 * ms, 2 * ms, "five threads"},
		{150 * ms, 2 * ms, "steady state"},
	}
	alloc := func(at ticks.Ticks) ticks.Ticks {
		var cpu ticks.Ticks = -1
		for _, p := range series {
			if p.Start <= at {
				cpu = p.CPU
			}
		}
		return cpu
	}
	for _, w := range wantAt {
		if got := alloc(w.at); got != w.cpu {
			t.Errorf("thread 2 allocation at %v (%s) = %v, want %v", w.at, w.desc, got, w.cpu)
		}
	}

	// Zero deadline misses anywhere, including during admissions.
	if rec.MissCount() != 0 {
		t.Errorf("%d deadline misses during the staircase run", rec.MissCount())
	}

	// Every admitted thread runs every 10ms in steady state.
	for i, id := range ids {
		st, ok := d.Stats(id)
		if !ok || st.UsedTicks == 0 {
			t.Errorf("thread %d never ran (%+v)", i+2, st)
		}
	}
}

func TestFigure4Shape(t *testing.T) {
	// §6.5 first experiment: four periodic threads plus the Sporadic
	// Server, all at 1/30s periods, max CPU 13, 2, 3 and 3 ms. The
	// 13ms producer never finishes (takes overtime, preempted at new
	// periods); producer 9 completes each period; the data threads
	// busy-wait their grants (the paper's "bug").
	rec := trace.New()
	d := New(Config{SwitchCosts: zeroCosts(), Observer: rec})
	period := ticks.PerSecond / 30
	if _, err := d.AddSporadicServer("sporadic", task.SingleLevel(2_700_000, 27_000, "SS"), true); err != nil {
		t.Fatal(err)
	}
	producer7, err := d.RequestAdmittance(&task.Task{
		Name: "producer7", List: task.SingleLevel(period, 13*ms, "Produce"), Body: task.Busy(),
	})
	if err != nil {
		t.Fatal(err)
	}
	data8, err := d.RequestAdmittance(&task.Task{
		Name: "data8", List: task.SingleLevel(period, 2*ms, "Manage"), Body: yieldAll(),
	})
	if err != nil {
		t.Fatal(err)
	}
	producer9, err := d.RequestAdmittance(&task.Task{
		Name: "producer9", List: task.SingleLevel(period, 3*ms, "Produce"), Body: task.PeriodicWork(3 * ms),
	})
	if err != nil {
		t.Fatal(err)
	}
	data10, err := d.RequestAdmittance(&task.Task{
		Name: "data10", List: task.SingleLevel(period, 3*ms, "Manage"), Body: yieldAll(),
	})
	if err != nil {
		t.Fatal(err)
	}
	d.Run(ticks.PerSecond / 3) // "one-third of a second into the run"

	if rec.MissCount() != 0 {
		t.Errorf("%d misses; the set does not overload the system", rec.MissCount())
	}
	// Producer 7 receives its guaranteed 13ms per period AND the
	// unused time (overtime), but is preempted when new periods begin.
	st7, _ := d.Stats(producer7)
	if st7.UsedTicks != st7.GrantedTicks {
		t.Errorf("producer7 granted use %v of %v", st7.UsedTicks, st7.GrantedTicks)
	}
	if st7.OvertimeTicks == 0 {
		t.Error("producer7 received no overtime despite idle capacity")
	}
	for _, id := range []task.ID{data8, producer9, data10} {
		st, _ := d.Stats(id)
		if st.Misses != 0 {
			t.Errorf("task %d missed %d deadlines", id, st.Misses)
		}
	}
	// The Gantt view renders all five threads.
	g := rec.Gantt(0, 100*ms, 100)
	for _, name := range []string{"producer7", "data8", "producer9", "data10"} {
		if !containsStr(g, name) {
			t.Errorf("Gantt missing row for %s:\n%s", name, g)
		}
	}
	if !containsStr(g, "#") || !containsStr(g, "+") {
		t.Errorf("Gantt missing granted/overtime marks:\n%s", g)
	}
}

func containsStr(s, sub string) bool {
	return len(s) >= len(sub) && (func() bool {
		for i := 0; i+len(sub) <= len(s); i++ {
			if s[i:i+len(sub)] == sub {
				return true
			}
		}
		return false
	})()
}

func TestTable4SettopScenario(t *testing.T) {
	// Modem + 3D + MPEG (Tables 2-4): all three admitted, grants sum
	// under 100%, zero misses over a second of simulated decode.
	d := New(Config{SwitchCosts: zeroCosts()})
	modem, err := d.RequestAdmittance(&task.Task{
		Name: "modem",
		List: task.SingleLevel(270_000, 27_000, "Modem"),
		Body: task.PeriodicWork(27_000),
	})
	if err != nil {
		t.Fatal(err)
	}
	g3d, err := d.RequestAdmittance(&task.Task{
		Name: "3d",
		List: task.ResourceList{
			{Period: 2_700_000, CPU: 2_160_000, Fn: "Render3DFrame"},
			{Period: 2_700_000, CPU: 1_080_000, Fn: "Render3DFrame"},
			{Period: 2_700_000, CPU: 540_000, Fn: "Render3DFrame"},
			{Period: 2_700_000, CPU: 270_000, Fn: "Render3DFrame"},
		},
		Body:      yieldAll(),
		Semantics: task.ReturnSemantics,
	})
	if err != nil {
		t.Fatal(err)
	}
	mpeg, err := d.RequestAdmittance(&task.Task{
		Name: "mpeg",
		List: task.ResourceList{
			{Period: 900_000, CPU: 300_000, Fn: "FullDecompress"},
			{Period: 3_600_000, CPU: 900_000, Fn: "Drop_B_in_4"},
			{Period: 2_700_000, CPU: 600_000, Fn: "Drop_B_in_3"},
			{Period: 3_600_000, CPU: 600_000, Fn: "Drop_2B_in_4"},
		},
		Body: yieldAll(),
	})
	if err != nil {
		t.Fatal(err)
	}
	gs := d.Grants()
	if gs.Len() != 3 {
		t.Fatalf("grant set size %d, want 3", gs.Len())
	}
	if !gs.TotalFrac().LessOrEqual(d.Manager().Available()) {
		t.Error("grant set exceeds the machine")
	}
	d.Run(ticks.PerSecond)
	for _, id := range []task.ID{modem, g3d, mpeg} {
		st, _ := d.Stats(id)
		if st.Misses != 0 {
			t.Errorf("task %d misses = %d", id, st.Misses)
		}
		if st.UsedTicks == 0 {
			t.Errorf("task %d never ran", id)
		}
	}
}

func TestQuiescentModemScenario(t *testing.T) {
	// §5.3: DVD runs at maximum while the telephone-answering modem
	// is quiescent; the call arrives, the modem wakes instantly and
	// the DVD sheds load. No task is terminated, nothing misses.
	rec := trace.New()
	d := New(Config{SwitchCosts: zeroCosts(), Observer: rec})
	dvd, err := d.RequestAdmittance(&task.Task{
		Name: "dvd",
		List: task.UniformLevels(10*ms, "DVD", 95, 60),
		Body: yieldAll(),
	})
	if err != nil {
		t.Fatal(err)
	}
	modem, err := d.RequestAdmittance(&task.Task{
		Name:           "modem",
		List:           task.SingleLevel(10*ms, 3*ms, "AnswerCall"),
		Body:           task.PeriodicWork(3 * ms),
		StartQuiescent: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	d.At(100*ms, func() {
		if err := d.Wake(modem); err != nil {
			t.Errorf("wake failed: %v", err)
		}
	})
	d.Run(200 * ms)

	if rec.MissCount() != 0 {
		t.Errorf("%d misses across the wake transition", rec.MissCount())
	}
	dvdSeries := rec.AllocationSeries(dvd)
	var before, after ticks.Ticks
	for _, p := range dvdSeries {
		if p.Start < 100*ms {
			before = p.CPU
		} else {
			after = p.CPU
		}
	}
	if before != 95*ms/10 {
		t.Errorf("dvd allocation before wake = %v, want 9.5ms (95%%)", before)
	}
	if after != 6*ms {
		t.Errorf("dvd allocation after wake = %v, want 6ms (60%%)", after)
	}
	mst, ok := d.Stats(modem)
	if !ok || mst.UsedTicks == 0 || mst.Misses != 0 {
		t.Errorf("modem stats after wake: %+v ok=%v", mst, ok)
	}
}

func TestTerminateReleasesResources(t *testing.T) {
	d := New(Config{SwitchCosts: zeroCosts()})
	a, _ := d.RequestAdmittance(&task.Task{
		Name: "a", List: task.UniformLevels(10*ms, "A", 90, 45), Body: yieldAll(),
	})
	b, _ := d.RequestAdmittance(&task.Task{
		Name: "b", List: task.UniformLevels(10*ms, "B", 90, 45), Body: yieldAll(),
	})
	d.Run(50 * ms)
	if err := d.Terminate(a); err != nil {
		t.Fatal(err)
	}
	d.Run(50 * ms)
	if _, ok := d.Stats(a); ok {
		t.Error("terminated task still scheduled")
	}
	gs := d.Grants()
	if gs.Of(b).Entry.Rate().Percent() != 90 {
		t.Errorf("survivor rate = %v, want back to 90%%", gs.Of(b).Entry.Rate())
	}
}

func TestDistributorSporadicFacade(t *testing.T) {
	d := New(Config{SwitchCosts: zeroCosts()})
	if _, err := d.AddSporadicServer("ss", task.SingleLevel(10*ms, 1*ms, "SS"), false); err != nil {
		t.Fatal(err)
	}
	ran := ticks.Ticks(0)
	sp := d.AddSporadic("burst", task.BodyFunc(func(ctx task.RunContext) task.RunResult {
		ran += ctx.Span
		return task.RunResult{Used: ctx.Span, Op: task.OpRanOut}
	}))
	d.Run(100 * ms)
	if ran == 0 {
		t.Error("sporadic task never ran")
	}
	d.RemoveSporadic(sp)
	before := ran
	d.Run(100 * ms)
	if ran != before {
		t.Error("removed sporadic task kept running")
	}
}

// TestSporadicServerSurvivesQuiescence: a server that goes quiescent
// (§5.3) and wakes is picked up again as the Sporadic Server, its body
// never dispatched, and goes back to running its sporadic task.
func TestSporadicServerSurvivesQuiescence(t *testing.T) {
	d := New(Config{SwitchCosts: zeroCosts()})
	ss, err := d.AddSporadicServer("ss", task.SingleLevel(10*ms, 2*ms, "SS"), false)
	if err != nil {
		t.Fatal(err)
	}
	job := d.AddSporadic("job", task.Busy())
	used := func() ticks.Ticks {
		st, ok := d.Scheduler().SporadicStatsOf(job)
		if !ok {
			t.Fatal("the sporadic task left the queue")
		}
		return st.UsedTicks
	}
	d.Run(25 * ms)
	if err := d.SetQuiescent(ss); err != nil {
		t.Fatal(err)
	}
	d.Run(10 * ms)
	before := used()
	if before == 0 {
		t.Fatal("the sporadic task never ran before the server went quiescent")
	}
	if err := d.Wake(ss); err != nil {
		t.Fatal(err)
	}
	d.Run(50 * ms)
	if after := used(); after <= before {
		t.Errorf("the sporadic task used %v before the server's quiescence and %v after its wake; want growth", before, after)
	}
	if f := d.Scheduler().Audit().Findings; len(f) != 0 {
		t.Errorf("the audit finds %q", f)
	}
}

func TestDeterministicRuns(t *testing.T) {
	// Two distributors with identical configuration and scenario
	// produce identical kernel statistics — the reproducibility
	// property everything else leans on.
	run := func() sim.Stats {
		d := New(Config{Seed: 99})
		_, _ = d.RequestAdmittance(&task.Task{
			Name: "a", List: task.SingleLevel(10*ms, 3*ms, "A"), Body: task.PeriodicWork(3 * ms),
		})
		_, _ = d.RequestAdmittance(&task.Task{
			Name: "b", List: task.SingleLevel(27*ms, 9*ms, "B"), Body: task.Busy(),
		})
		d.Run(ticks.PerSecond)
		return d.KernelStats()
	}
	s1, s2 := run(), run()
	if s1 != s2 {
		t.Errorf("same seed, different stats:\n%+v\n%+v", s1, s2)
	}
}

func TestObserverWiring(t *testing.T) {
	rec := trace.New()
	d := New(Config{SwitchCosts: zeroCosts(), Observer: rec})
	_, _ = d.RequestAdmittance(&task.Task{
		Name: "w", List: task.SingleLevel(10*ms, 3*ms, "W"), Body: task.PeriodicWork(3 * ms),
	})
	d.Run(50 * ms)
	if len(rec.Slices) == 0 || len(rec.Periods) == 0 {
		t.Error("observer received no events")
	}
	if got := trace.Analyze(rec.Export()).Tasks[0].GrantedTicks; got != 15*ms {
		t.Errorf("granted ticks from trace = %v, want 15ms", got)
	}
}

var _ sched.Observer = (*trace.Recorder)(nil)
