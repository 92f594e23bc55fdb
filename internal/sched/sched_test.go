package sched

import (
	"testing"

	"repro/internal/rm"
	"repro/internal/sim"
	"repro/internal/task"
	"repro/internal/ticks"
)

// newSystem wires a Kernel, Resource Manager, and Scheduler the way
// internal/core does, with configurable switch costs.
func newSystem(reservePct int64, costs sim.SwitchCosts) (*sim.Kernel, *rm.Manager, *Scheduler) {
	k := sim.NewKernel(sim.Config{Seed: 1, Costs: costs})
	m := rm.New(rm.Config{InterruptReservePercent: reservePct})
	s := New(Config{Kernel: k, RM: m})
	m.SetHooks(s)
	return k, m, s
}

func mustAdmit(t *testing.T, m *rm.Manager, tk *task.Task) task.ID {
	t.Helper()
	id, err := m.RequestAdmittance(tk)
	if err != nil {
		t.Fatalf("admit %s: %v", tk.Name, err)
	}
	return id
}

const ms = ticks.PerMillisecond

func TestSingleTaskReceivesGrantEveryPeriod(t *testing.T) {
	k, m, s := newSystem(0, sim.ZeroSwitchCosts())
	// 3ms of work in a 10ms period.
	id := mustAdmit(t, m, &task.Task{
		Name: "worker",
		List: task.SingleLevel(10*ms, 3*ms, "Work"),
		Body: task.PeriodicWork(3 * ms),
	})
	s.RunUntil(100 * ms)
	st, ok := s.Stats(id)
	if !ok {
		t.Fatal("no stats for admitted task")
	}
	if st.Periods != 10 {
		t.Errorf("periods = %d, want 10", st.Periods)
	}
	if st.Misses != 0 {
		t.Errorf("misses = %d, want 0", st.Misses)
	}
	if st.UsedTicks != 30*ms {
		t.Errorf("used = %v, want 30ms", st.UsedTicks)
	}
	if got := k.Stats().IdleTicks; got != 70*ms {
		t.Errorf("idle = %v, want 70ms", got)
	}
}

func TestGrantEnforcedWhenOthersReady(t *testing.T) {
	// A greedy task is limited to its grant when another task is
	// ready; the other task still gets its full grant.
	_, m, s := newSystem(0, sim.ZeroSwitchCosts())
	greedy := mustAdmit(t, m, &task.Task{
		Name: "greedy",
		List: task.SingleLevel(10*ms, 6*ms, "Busy"),
		Body: task.Busy(),
	})
	meek := mustAdmit(t, m, &task.Task{
		Name: "meek",
		List: task.SingleLevel(10*ms, 4*ms, "Work"),
		Body: task.PeriodicWork(4 * ms),
	})
	s.RunUntil(100 * ms)
	gst, _ := s.Stats(greedy)
	mst, _ := s.Stats(meek)
	if mst.Misses != 0 {
		t.Errorf("meek missed %d deadlines; greedy impinged on its grant", mst.Misses)
	}
	if mst.UsedTicks != 40*ms {
		t.Errorf("meek used %v, want 40ms", mst.UsedTicks)
	}
	if gst.UsedTicks != 60*ms {
		t.Errorf("greedy granted-use %v, want exactly its 60ms of grants", gst.UsedTicks)
	}
	// 100% allocated: no overtime or idle available.
	if gst.OvertimeTicks != 0 {
		t.Errorf("greedy got %v overtime on a fully allocated machine", gst.OvertimeTicks)
	}
}

func TestUnusedTimeFlowsToOvertime(t *testing.T) {
	// §3.2 second principle: idle CPU is granted to a requesting
	// task. The yielding task's slack goes to the busy one.
	k, m, s := newSystem(0, sim.ZeroSwitchCosts())
	busy := mustAdmit(t, m, &task.Task{
		Name: "busy",
		List: task.SingleLevel(10*ms, 2*ms, "Busy"),
		Body: task.Busy(),
	})
	mustAdmit(t, m, &task.Task{
		Name: "light",
		List: task.SingleLevel(10*ms, 8*ms, "Work"),
		Body: task.PeriodicWork(1 * ms), // reserves 8ms, uses 1ms
	})
	s.RunUntil(100 * ms)
	bst, _ := s.Stats(busy)
	if bst.UsedTicks != 20*ms {
		t.Errorf("busy granted-use = %v, want 20ms", bst.UsedTicks)
	}
	// 10ms/period - 2ms busy grant - 1ms light usage = 7ms/period
	// overtime for busy.
	if bst.OvertimeTicks != 70*ms {
		t.Errorf("busy overtime = %v, want 70ms", bst.OvertimeTicks)
	}
	if k.Stats().IdleTicks != 0 {
		t.Errorf("idle = %v with an overtime requester present", k.Stats().IdleTicks)
	}
}

func TestEDFPreemption(t *testing.T) {
	// Short-period task preempts a long-period task mid-grant; both
	// receive their full grants (Figure 3's shape).
	_, m, s := newSystem(0, sim.ZeroSwitchCosts())
	long := mustAdmit(t, m, &task.Task{
		Name: "long",
		List: task.SingleLevel(30*ms, 18*ms, "Long"),
		Body: task.PeriodicWork(18 * ms),
	})
	short := mustAdmit(t, m, &task.Task{
		Name: "short",
		List: task.SingleLevel(10*ms, 4*ms, "Short"),
		Body: task.PeriodicWork(4 * ms),
	})
	s.RunUntil(300 * ms)
	lst, _ := s.Stats(long)
	sst, _ := s.Stats(short)
	if lst.Misses != 0 || sst.Misses != 0 {
		t.Errorf("misses long=%d short=%d, want 0/0", lst.Misses, sst.Misses)
	}
	if lst.UsedTicks != 180*ms {
		t.Errorf("long used %v, want 180ms", lst.UsedTicks)
	}
	if sst.UsedTicks != 120*ms {
		t.Errorf("short used %v, want 120ms", sst.UsedTicks)
	}
}

func TestGuaranteeHoldsInOverload(t *testing.T) {
	// The headline claim: an admitted task never misses a deadline,
	// even when the task set's maxima exceed the machine (overload
	// forces shedding, but every granted allocation is delivered).
	_, m, s := newSystem(4, sim.ZeroSwitchCosts())
	var ids []task.ID
	for i := 0; i < 5; i++ {
		id := mustAdmit(t, m, &task.Task{
			Name: string(rune('a' + i)),
			List: task.UniformLevels(10*ms, "Busy", 90, 80, 70, 60, 50, 40, 30, 20, 10),
			Body: task.Busy(),
		})
		ids = append(ids, id)
	}
	s.RunUntil(ticks.PerSecond)
	for i, id := range ids {
		st, _ := s.Stats(id)
		if st.Misses != 0 {
			t.Errorf("task %d: %d deadline misses in overload", i, st.Misses)
		}
		if st.UsedTicks != st.GrantedTicks {
			t.Errorf("task %d: used %v of granted %v — grant not fully delivered",
				i, st.UsedTicks, st.GrantedTicks)
		}
	}
}

func TestBlockedTaskGuaranteesVoidThenResume(t *testing.T) {
	_, m, s := newSystem(0, sim.ZeroSwitchCosts())
	// Does 2ms then blocks for 25ms: misses ~2 periods each cycle.
	id := mustAdmit(t, m, &task.Task{
		Name: "blocky",
		List: task.SingleLevel(10*ms, 5*ms, "Work"),
		Body: task.WorkThenBlock(2*ms, 25*ms),
	})
	s.RunUntil(200 * ms)
	st, _ := s.Stats(id)
	if st.Misses != 0 {
		t.Errorf("blocked task charged %d misses; guarantees are void while blocked", st.Misses)
	}
	if st.BlockedPeriods == 0 {
		t.Error("no blocked periods recorded")
	}
	if st.Periods == 0 || st.UsedTicks == 0 {
		t.Error("task never resumed after blocking")
	}
}

func TestExplicitUnblock(t *testing.T) {
	k, m, s := newSystem(0, sim.ZeroSwitchCosts())
	id := mustAdmit(t, m, &task.Task{
		Name: "waiter",
		List: task.SingleLevel(10*ms, 2*ms, "Work"),
		Body: task.WorkThenBlock(2*ms, 0), // blocks until Unblock
	})
	s.RunUntil(50 * ms)
	st, _ := s.Stats(id)
	if st.UsedTicks != 2*ms {
		t.Fatalf("used = %v before unblock, want 2ms (one period then block)", st.UsedTicks)
	}
	// Wake it mid-run; guarantees resume in the first full period.
	k.At(k.Now(), func() { _ = s.Unblock(id) })
	s.RunUntil(100 * ms)
	st2, _ := s.Stats(id)
	if st2.UsedTicks <= st.UsedTicks {
		t.Error("task did not run again after Unblock")
	}
	if err := s.Unblock(999); err == nil {
		t.Error("Unblock of unknown task should error")
	}
	if err := s.Unblock(id); err != nil {
		t.Errorf("Unblock of unblocked task should be a no-op: %v", err)
	}
}

func TestTaskExitLeavesSystem(t *testing.T) {
	_, m, s := newSystem(0, sim.ZeroSwitchCosts())
	id := mustAdmit(t, m, &task.Task{
		Name: "finite",
		List: task.SingleLevel(10*ms, 2*ms, "Work"),
		Body: task.FinitePeriods(2*ms, 3),
	})
	s.RunUntil(100 * ms)
	if s.NTasks() != 0 {
		t.Errorf("scheduler still holds %d tasks after exit", s.NTasks())
	}
	if m.NTasks() != 0 {
		t.Errorf("manager still holds %d tasks after exit", m.NTasks())
	}
	st, ok := s.Stats(id)
	if ok {
		t.Errorf("stats still present after exit: %+v", st)
	}
}

func TestAdmissionMidRunDoesNotDisturb(t *testing.T) {
	// §4.2: "By waiting for unallocated time to begin a new grant, we
	// assure that adding a new task cannot affect the running of an
	// already admitted task."
	k, m, s := newSystem(0, sim.ZeroSwitchCosts())
	first := mustAdmit(t, m, &task.Task{
		Name: "first",
		List: task.SingleLevel(10*ms, 4*ms, "Work"),
		Body: task.PeriodicWork(4 * ms),
	})
	k.At(33*ms, func() {
		_ = mustAdmitErrless(m, &task.Task{
			Name: "second",
			List: task.SingleLevel(10*ms, 4*ms, "Work"),
			Body: task.PeriodicWork(4 * ms),
		})
	})
	s.RunUntil(200 * ms)
	fst, _ := s.Stats(first)
	if fst.Misses != 0 {
		t.Errorf("first task missed %d deadlines around mid-run admission", fst.Misses)
	}
	if fst.Periods != 20 {
		t.Errorf("first task ran %d periods, want 20", fst.Periods)
	}
	// The second task is granted and running too.
	found := false
	for _, id := range s.TaskIDs() {
		if id != first {
			st, _ := s.Stats(id)
			if st.UsedTicks > 0 && st.Misses == 0 {
				found = true
			}
		}
	}
	if !found {
		t.Error("second task never ran cleanly")
	}
}

func mustAdmitErrless(m *rm.Manager, tk *task.Task) task.ID {
	id, err := m.RequestAdmittance(tk)
	if err != nil {
		panic(err)
	}
	return id
}

func TestQuiescentWakeMidRun(t *testing.T) {
	// §5.3 telephone-answering modem: quiescent while the DVD has the
	// machine; wakes mid-run and is granted immediately with zero
	// misses anywhere.
	k, m, s := newSystem(0, sim.ZeroSwitchCosts())
	dvd := mustAdmit(t, m, &task.Task{
		Name: "dvd",
		List: task.UniformLevels(10*ms, "DVD", 90, 50),
		Body: task.Busy(),
	})
	modem := mustAdmit(t, m, &task.Task{
		Name:           "modem",
		List:           task.SingleLevel(10*ms, 4*ms, "Modem"),
		Body:           task.PeriodicWork(4 * ms),
		StartQuiescent: true,
	})
	k.At(50*ms, func() { _ = m.Wake(modem) })
	s.RunUntil(150 * ms)
	dst, _ := s.Stats(dvd)
	mst, ok := s.Stats(modem)
	if !ok {
		t.Fatal("woken modem never scheduled")
	}
	if dst.Misses != 0 || mst.Misses != 0 {
		t.Errorf("misses dvd=%d modem=%d, want 0/0", dst.Misses, mst.Misses)
	}
	if mst.UsedTicks == 0 {
		t.Error("woken modem got no CPU")
	}
	// DVD shed from 90% to 50% after the wake.
	if dst.UsedTicks >= 90*ms*150/100 {
		t.Errorf("dvd used %v; it should have shed load after the wake", dst.UsedTicks)
	}
}

func TestSporadicServerRunsSporadics(t *testing.T) {
	_, m, s := newSystem(0, sim.ZeroSwitchCosts())
	ss := mustAdmit(t, m, &task.Task{
		Name: "ss",
		List: task.SingleLevel(10*ms, 2*ms, "SporadicServer"),
		Body: ServerBody(false),
	})
	var aRan, bRan ticks.Ticks
	a := s.AddSporadic("a", task.BodyFunc(func(ctx task.RunContext) task.RunResult {
		aRan += ctx.Span
		return task.RunResult{Used: ctx.Span, Op: task.OpRanOut}
	}))
	s.AddSporadic("b", task.BodyFunc(func(ctx task.RunContext) task.RunResult {
		bRan += ctx.Span
		return task.RunResult{Used: ctx.Span, Op: task.OpRanOut}
	}))
	s.RunUntil(500 * ms)
	if aRan == 0 || bRan == 0 {
		t.Fatalf("sporadics ran a=%v b=%v; both should run (round robin)", aRan, bRan)
	}
	ast, ok := s.SporadicStatsOf(a)
	if !ok || ast.UsedTicks != aRan {
		t.Errorf("sporadic stats = %+v ok=%v, want used %v", ast, ok, aRan)
	}
	// Bookkeeping stays with the server: its granted usage is charged.
	sst, _ := s.Stats(ss)
	if sst.UsedTicks == 0 {
		t.Error("sporadic execution not charged to the server's grant")
	}
	if got := aRan + bRan; got != sst.UsedTicks+sst.OvertimeTicks {
		t.Errorf("sporadic time %v != server granted %v + overtime %v",
			got, sst.UsedTicks, sst.OvertimeTicks)
	}
}

func TestSporadicDoesNotDisturbPeriodic(t *testing.T) {
	_, m, s := newSystem(0, sim.ZeroSwitchCosts())
	worker := mustAdmit(t, m, &task.Task{
		Name: "worker",
		List: task.SingleLevel(10*ms, 7*ms, "Work"),
		Body: task.PeriodicWork(7 * ms),
	})
	mustAdmit(t, m, &task.Task{
		Name: "ss",
		List: task.SingleLevel(100*ms, 1*ms, "SporadicServer"),
		Body: ServerBody(false),
	})
	s.AddSporadic("hog", task.Busy())
	s.RunUntil(ticks.PerSecond)
	wst, _ := s.Stats(worker)
	if wst.Misses != 0 {
		t.Errorf("periodic task missed %d deadlines with a sporadic hog present", wst.Misses)
	}
	if wst.UsedTicks != wst.GrantedTicks {
		t.Errorf("periodic used %v of %v granted", wst.UsedTicks, wst.GrantedTicks)
	}
}

// periodStartObserver records every period start per task.
type periodStartObserver struct {
	NopObserver
	starts map[task.ID][]ticks.Ticks
}

func (o *periodStartObserver) OnPeriodStart(id task.ID, start, _ ticks.Ticks, _ int, _ ticks.Ticks) {
	if o.starts == nil {
		o.starts = make(map[task.ID][]ticks.Ticks)
	}
	o.starts[id] = append(o.starts[id], start)
}

func TestInsertIdleCyclesPostponesPeriod(t *testing.T) {
	obs := &periodStartObserver{}
	k := sim.NewKernel(sim.Config{Costs: sim.ZeroSwitchCosts()})
	m := rm.New(rm.Config{})
	s := New(Config{Kernel: k, RM: m, Observer: obs})
	m.SetHooks(s)
	id := mustAdmit(t, m, &task.Task{
		Name: "mpeg2",
		List: task.SingleLevel(10*ms, 2*ms, "Work"),
		Body: task.PeriodicWork(2 * ms),
	})
	other := mustAdmit(t, m, &task.Task{
		Name: "other",
		List: task.SingleLevel(10*ms, 3*ms, "Work"),
		Body: task.PeriodicWork(3 * ms),
	})
	s.RunUntil(5 * ms)
	if err := s.InsertIdleCycles(id, 4*ms); err != nil {
		t.Fatal(err)
	}
	s.RunUntil(100 * ms)
	starts := obs.starts[id]
	if len(starts) < 3 {
		t.Fatalf("only %d period starts observed", len(starts))
	}
	if starts[1] != 14*ms {
		t.Errorf("postponed period start = %v, want 14ms (10ms + 4ms inserted)", starts[1])
	}
	for i := 2; i < len(starts); i++ {
		if starts[i] != starts[i-1]+10*ms {
			t.Errorf("period %d start = %v, want %v (cadence resumes after skew)",
				i, starts[i], starts[i-1]+10*ms)
		}
	}
	st, _ := s.Stats(id)
	ost, _ := s.Stats(other)
	if st.Misses != 0 || ost.Misses != 0 {
		t.Errorf("misses %d/%d after InsertIdleCycles, want 0/0", st.Misses, ost.Misses)
	}
	// The interface cannot pull a period in.
	if err := s.InsertIdleCycles(id, -1); err == nil {
		t.Error("negative InsertIdleCycles accepted")
	}
	if err := s.InsertIdleCycles(999, 1); err == nil {
		t.Error("InsertIdleCycles on unknown task accepted")
	}
}

func TestLatencyBound(t *testing.T) {
	// §4.2: "the maximum guaranteed latency for a task is twice its
	// period minus twice its CPU requirement." Track per-period grant
	// completion times and check consecutive gaps.
	obs := &completionObserver{target: 2}
	k := sim.NewKernel(sim.Config{Costs: sim.ZeroSwitchCosts()})
	m := rm.New(rm.Config{})
	s := New(Config{Kernel: k, RM: m, Observer: obs})
	m.SetHooks(s)

	// Task 1 hogs EDF priority with a short period; task 2 (the
	// measured one) has period 30ms, cpu 10ms.
	mustAdmit(t, m, &task.Task{
		Name: "short",
		List: task.SingleLevel(10*ms, 5*ms, "S"),
		Body: task.PeriodicWork(5 * ms),
	})
	id2 := mustAdmit(t, m, &task.Task{
		Name: "measured",
		List: task.SingleLevel(30*ms, 10*ms, "M"),
		Body: task.PeriodicWork(10 * ms),
	})
	obs.target = id2
	s.RunUntil(ticks.PerSecond)

	period, cpu := 30*ms, 10*ms
	bound := 2*period - 2*cpu
	for i := 1; i < len(obs.completions); i++ {
		gap := obs.completions[i] - obs.completions[i-1]
		if gap > bound {
			t.Errorf("completion gap %v exceeds latency bound %v", gap, bound)
		}
	}
	if len(obs.completions) < 30 {
		t.Errorf("only %d completions observed", len(obs.completions))
	}
}

// completionObserver records when the target task's granted CPU for
// each period finishes.
type completionObserver struct {
	NopObserver
	target      task.ID
	last        ticks.Ticks
	completions []ticks.Ticks
}

func (o *completionObserver) OnDispatch(id task.ID, _ string, _, to ticks.Ticks, kind DispatchKind, _ int) {
	if id == o.target && kind == DispatchGranted {
		// The final granted slice of a period is detected by the
		// next OnPeriodStart; simpler: record every slice end and
		// keep the max per period via OnPeriodStart resets.
		o.last = to
	}
}

func (o *completionObserver) OnPeriodStart(id task.ID, _, _ ticks.Ticks, _ int, _ ticks.Ticks) {
	if id == o.target && o.last != 0 {
		o.completions = append(o.completions, o.last)
		o.last = 0
	}
}

func TestControlledPreemptionGraceYield(t *testing.T) {
	// §5.6: a registered task is notified and yields voluntarily
	// inside the grace period; it records no exceptions and the
	// preempting task is unharmed.
	k, m, s := newSystem(0, sim.ZeroSwitchCosts())
	coop := mustAdmit(t, m, &task.Task{
		Name:                 "coop",
		List:                 task.SingleLevel(30*ms, 15*ms, "Coop"),
		Body:                 task.CooperativeWork(15*ms, 50*ticks.PerMicrosecond),
		ControlledPreemption: true,
	})
	short := mustAdmit(t, m, &task.Task{
		Name: "short",
		List: task.SingleLevel(10*ms, 3*ms, "S"),
		Body: task.PeriodicWork(3 * ms),
	})
	s.RunUntil(300 * ms)
	cst, _ := s.Stats(coop)
	sst, _ := s.Stats(short)
	if cst.Exceptions != 0 {
		t.Errorf("cooperative task got %d exceptions; it yields within grace", cst.Exceptions)
	}
	if cst.Misses != 0 || sst.Misses != 0 {
		t.Errorf("misses %d/%d with controlled preemption, want 0/0", cst.Misses, sst.Misses)
	}
	_ = k
}

func TestControlledPreemptionOverrunException(t *testing.T) {
	// A registered task that never yields overruns every grace
	// period: involuntary preemption plus exception callbacks.
	var exceptions int
	body := task.BodyFunc(func(ctx task.RunContext) task.RunResult {
		if ctx.Exception() {
			exceptions++
		}
		return task.RunResult{Used: ctx.Span, Op: task.OpRanOut}
	})
	_, m, s := newSystem(0, sim.ZeroSwitchCosts())
	stubborn := mustAdmit(t, m, &task.Task{
		Name:                 "stubborn",
		List:                 task.SingleLevel(30*ms, 15*ms, "X"),
		Body:                 body,
		ControlledPreemption: true,
	})
	mustAdmit(t, m, &task.Task{
		Name: "short",
		List: task.SingleLevel(10*ms, 3*ms, "S"),
		Body: task.PeriodicWork(3 * ms),
	})
	s.RunUntil(300 * ms)
	st, _ := s.Stats(stubborn)
	if st.Exceptions == 0 {
		t.Error("stubborn task recorded no grace-period overruns")
	}
	if exceptions == 0 {
		t.Error("exception callback never delivered to the body")
	}
}

func TestCallbackVsReturnSemantics(t *testing.T) {
	// Callback-semantics tasks get NewPeriod on every period's first
	// dispatch; return-semantics tasks only on the initial grant.
	countNew := func(sem task.Semantics) int {
		newPeriods := 0
		body := task.BodyFunc(func(ctx task.RunContext) task.RunResult {
			if ctx.NewPeriod {
				newPeriods++
			}
			left := 2*ms - ctx.UsedThisPeriod
			if left <= 0 {
				return task.RunResult{Op: task.OpYield, Completed: true}
			}
			if left > ctx.Span {
				left = ctx.Span
			}
			return task.RunResult{Used: left, Op: task.OpYield, Completed: true}
		})
		_, m, s := newSystem(0, sim.ZeroSwitchCosts())
		mustAdmit(t, m, &task.Task{
			Name:      "t",
			List:      task.SingleLevel(10*ms, 2*ms, "T"),
			Body:      body,
			Semantics: sem,
		})
		s.RunUntil(100 * ms)
		return newPeriods
	}
	if got := countNew(task.CallbackSemantics); got != 10 {
		t.Errorf("callback semantics: %d NewPeriod dispatches, want 10", got)
	}
	if got := countNew(task.ReturnSemantics); got != 1 {
		t.Errorf("return semantics: %d NewPeriod dispatches, want 1 (initial grant only)", got)
	}
}

// filterBody records filter-callback invocations.
type filterBody struct {
	calls  int
	choice task.Semantics
	runs   int
}

func (f *filterBody) Run(ctx task.RunContext) task.RunResult {
	f.runs++
	return task.RunResult{Used: ctx.Span, Op: task.OpRanOut}
}

func (f *filterBody) FilterGrantChange(oldLevel, newLevel int) task.Semantics {
	f.calls++
	return f.choice
}

func TestFilterCallbackOnGrantChange(t *testing.T) {
	// A return-semantics task with a filter gets the filter called
	// when its grant changes (here: overload arrives mid-run).
	k, m, s := newSystem(0, sim.ZeroSwitchCosts())
	fb := &filterBody{choice: task.ReturnSemantics}
	mustAdmit(t, m, &task.Task{
		Name:      "graphics",
		List:      task.UniformLevels(10*ms, "Render", 80, 40),
		Body:      fb,
		Semantics: task.ReturnSemantics,
	})
	k.At(35*ms, func() {
		mustAdmitErrless(m, &task.Task{
			Name: "intruder",
			List: task.SingleLevel(10*ms, 5*ms, "I"),
			Body: task.PeriodicWork(5 * ms),
		})
	})
	s.RunUntil(100 * ms)
	if fb.calls == 0 {
		t.Error("filter callback never invoked on grant change")
	}
	if fb.runs == 0 {
		t.Error("filter body never ran")
	}
}

func TestSwitchCountsScaleWithPeriods(t *testing.T) {
	// §6.1: "We take (at least) twice as many interrupts as the
	// shortest period in the system." Two 10ms-period tasks over 1s
	// yield on the order of 200 switches, not thousands.
	k, m, s := newSystem(0, sim.PaperSwitchCosts())
	mustAdmit(t, m, &task.Task{
		Name: "a", List: task.SingleLevel(10*ms, 3*ms, "A"), Body: task.PeriodicWork(3 * ms),
	})
	mustAdmit(t, m, &task.Task{
		Name: "b", List: task.SingleLevel(10*ms, 3*ms, "B"), Body: task.PeriodicWork(3 * ms),
	})
	s.RunUntil(ticks.PerSecond)
	st := k.Stats()
	total := st.VolSwitches + st.InvolSwitches
	if total < 150 || total > 450 {
		t.Errorf("switches = %d over 1s with two 10ms tasks, want a few hundred", total)
	}
	if st.SwitchOverheadFraction() > 0.02 {
		t.Errorf("switch overhead %.3f%%, want well under 2%%", 100*st.SwitchOverheadFraction())
	}
}

func TestSmallOverlapOverrideReducesSwitches(t *testing.T) {
	// A long task whose grant end falls just after a short task's
	// period start gets finished under the override instead of paying
	// two context switches.
	run := func(override ticks.Ticks) int64 {
		k := sim.NewKernel(sim.Config{Costs: sim.PaperSwitchCosts()})
		m := rm.New(rm.Config{})
		s := New(Config{Kernel: k, RM: m, OverrideWindow: override})
		m.SetHooks(s)
		// short: 10ms period, 5ms CPU; long: 45ms period, 15.05ms
		// CPU. EDF preempts long at 30ms with just 50us of grant
		// left; the override finishes it instead.
		longCPU := 15*ms + 50*ticks.PerMicrosecond
		mustAdmitErrless(m, &task.Task{
			Name: "short", List: task.SingleLevel(10*ms, 5*ms, "S"), Body: task.PeriodicWork(5 * ms),
		})
		mustAdmitErrless(m, &task.Task{
			Name: "long", List: task.SingleLevel(45*ms, longCPU, "L"),
			Body: task.PeriodicWork(longCPU),
		})
		s.RunUntil(ticks.PerSecond)
		st := k.Stats()
		return st.VolSwitches + st.InvolSwitches
	}
	// Switch costs consume ~35us per involuntary switch, so the
	// residual overlap at the 30ms preemption point is ~185us; a
	// 500us window covers it, a 1-tick window never fires.
	with := run(500 * ticks.PerMicrosecond)
	without := run(1) // effectively disabled
	if with >= without {
		t.Errorf("override did not reduce switches: with=%d without=%d", with, without)
	}
}

func TestWorkConservation(t *testing.T) {
	// Invariant 4: the CPU idles only when no admitted task is
	// runnable and no overtime is requested. With an overtime
	// requester admitted, idle must be zero.
	k, m, s := newSystem(0, sim.ZeroSwitchCosts())
	mustAdmit(t, m, &task.Task{
		Name: "soak", List: task.SingleLevel(10*ms, 1*ms, "S"), Body: task.Busy(),
	})
	mustAdmit(t, m, &task.Task{
		Name: "worker", List: task.SingleLevel(10*ms, 5*ms, "W"), Body: task.PeriodicWork(2 * ms),
	})
	s.RunUntil(ticks.PerSecond)
	if k.Stats().IdleTicks != 0 {
		t.Errorf("idle = %v with an overtime soak present", k.Stats().IdleTicks)
	}
	if got := k.Stats().Utilization(); got < 0.999 {
		t.Errorf("utilization = %.4f, want ~1.0", got)
	}
}

func TestGrantChangeAppliesAtPeriodBoundary(t *testing.T) {
	// Guarantee 4: "The grant will not change mid-period." Track
	// levels seen by the body; within one period the level is stable.
	type seen struct {
		period int
		level  int
	}
	var log []seen
	period := 0
	body := task.BodyFunc(func(ctx task.RunContext) task.RunResult {
		if ctx.NewPeriod {
			period++
		}
		log = append(log, seen{period, ctx.Level})
		left := 9*ms - ctx.UsedThisPeriod
		if left <= 0 {
			return task.RunResult{Op: task.OpYield, Completed: true}
		}
		if left > ctx.Span {
			left = ctx.Span
		}
		op := task.OpYield
		if left == ctx.Span {
			op = task.OpRanOut
		}
		return task.RunResult{Used: left, Op: op, Completed: op == task.OpYield}
	})
	k, m, s := newSystem(0, sim.ZeroSwitchCosts())
	mustAdmit(t, m, &task.Task{
		Name: "variable",
		List: task.UniformLevels(10*ms, "V", 90, 40),
		Body: body,
	})
	k.At(25*ms, func() {
		mustAdmitErrless(m, &task.Task{
			Name: "half",
			List: task.SingleLevel(10*ms, 5*ms, "H"),
			Body: task.PeriodicWork(5 * ms),
		})
	})
	s.RunUntil(100 * ms)
	perPeriod := make(map[int]int)
	for _, e := range log {
		if lvl, ok := perPeriod[e.period]; ok && lvl != e.level {
			t.Fatalf("grant level changed mid-period %d: %d -> %d", e.period, lvl, e.level)
		}
		perPeriod[e.period] = e.level
	}
	// And the change did happen across periods.
	levels := make(map[int]bool)
	for _, l := range perPeriod {
		levels[l] = true
	}
	if len(levels) < 2 {
		t.Error("grant level never changed despite overload arriving")
	}
}
