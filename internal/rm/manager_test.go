package rm

import (
	"errors"
	"testing"
	"testing/quick"

	"repro/internal/policy"
	"repro/internal/task"
	"repro/internal/ticks"
)

// yieldBody is a trivial body for descriptor validation.
var yieldBody = task.BodyFunc(func(ctx task.RunContext) task.RunResult {
	return task.RunResult{Used: ctx.Span, Op: task.OpYield, Completed: true}
})

func newTask(name string, list task.ResourceList) *task.Task {
	return &task.Task{Name: name, List: list, Body: yieldBody}
}

// Paper Table 2 / Table 3 / Table 4 task descriptors.
func mpegTask() *task.Task {
	return newTask("mpeg", task.ResourceList{
		{Period: 900_000, CPU: 300_000, Fn: "FullDecompress"},
		{Period: 3_600_000, CPU: 900_000, Fn: "Drop_B_in_4"},
		{Period: 2_700_000, CPU: 600_000, Fn: "Drop_B_in_3"},
		{Period: 3_600_000, CPU: 600_000, Fn: "Drop_2B_in_4"},
	})
}

func graphics3DTask() *task.Task {
	return newTask("3d", task.ResourceList{
		{Period: 2_700_000, CPU: 2_160_000, Fn: "Render3DFrame"},
		{Period: 2_700_000, CPU: 1_080_000, Fn: "Render3DFrame"},
		{Period: 2_700_000, CPU: 540_000, Fn: "Render3DFrame"},
		{Period: 2_700_000, CPU: 270_000, Fn: "Render3DFrame"},
	})
}

func modemTask() *task.Task {
	return newTask("modem", task.SingleLevel(270_000, 27_000, "Modem"))
}

func TestAdmissionBasic(t *testing.T) {
	m := New(Config{})
	id, err := m.RequestAdmittance(mpegTask())
	if err != nil {
		t.Fatalf("admit mpeg: %v", err)
	}
	if id == task.NoID {
		t.Fatal("admitted task got NoID")
	}
	if m.NTasks() != 1 {
		t.Errorf("NTasks = %d, want 1", m.NTasks())
	}
	st, err := m.State(id)
	if err != nil || st != task.Runnable {
		t.Errorf("State = %v/%v, want runnable", st, err)
	}
}

func TestAdmissionDeniedWhenMinimumsDontFit(t *testing.T) {
	m := New(Config{})
	// Six tasks each with an 18% minimum = 108% > 100%.
	big := task.SingleLevel(270_000, 48_600, "Hog") // 18%
	for i := 0; i < 5; i++ {
		if _, err := m.RequestAdmittance(newTask(string(rune('a'+i)), big)); err != nil {
			t.Fatalf("task %d should be admitted (90%% total): %v", i, err)
		}
	}
	_, err := m.RequestAdmittance(newTask("f", big))
	if !errors.Is(err, ErrAdmissionDenied) {
		t.Errorf("sixth 18%% task: err = %v, want ErrAdmissionDenied", err)
	}
	if m.NTasks() != 5 {
		t.Errorf("denied task changed NTasks: %d", m.NTasks())
	}
	// But a small task still fits in the remaining 10%.
	if _, err := m.RequestAdmittance(newTask("small", task.SingleLevel(270_000, 13_500, "S"))); err != nil {
		t.Errorf("5%% task denied with 10%% free: %v", err)
	}
}

func TestAdmissionCountsMinimumNotMaximum(t *testing.T) {
	m := New(Config{})
	// MPEG max is 33.3% but min is 16.7%: six MPEGs fit by minimum
	// (100.2% > 100 fails at the 6th; five at 83.5% fit).
	for i := 0; i < 5; i++ {
		if _, err := m.RequestAdmittance(mpegTask()); err != nil {
			t.Fatalf("mpeg %d denied: %v (admission must sum minimums)", i, err)
		}
	}
	// 5 * 16.67% = 83.3%; adding 3D's min 10% = 93.3% fits.
	if _, err := m.RequestAdmittance(graphics3DTask()); err != nil {
		t.Errorf("3d denied: %v", err)
	}
}

func TestAdmissionRespectsInterruptReserve(t *testing.T) {
	m := New(Config{InterruptReservePercent: 4})
	// 97% minimum cannot fit when 4% is reserved.
	if _, err := m.RequestAdmittance(newTask("big", task.SingleLevel(270_000, 261_900, "B"))); !errors.Is(err, ErrAdmissionDenied) {
		t.Errorf("97%% min with 4%% reserve: err = %v, want denial", err)
	}
	// 96% fits exactly.
	if _, err := m.RequestAdmittance(newTask("ok", task.SingleLevel(270_000, 259_200, "B"))); err != nil {
		t.Errorf("96%% min with 4%% reserve denied: %v", err)
	}
}

func TestAdmissionBoundaryExact(t *testing.T) {
	m := New(Config{})
	// Ten exact-10% single-level tasks fill the machine exactly.
	for i := 0; i < 10; i++ {
		if _, err := m.RequestAdmittance(newTask(string(rune('a'+i)), task.SingleLevel(270_000, 27_000, "T"))); err != nil {
			t.Fatalf("task %d at exact boundary denied: %v", i, err)
		}
	}
	// The 11th, even needing a single tick, is denied.
	tiny := task.SingleLevel(ticks.MinPeriod, 1, "tiny")
	if _, err := m.RequestAdmittance(newTask("z", tiny)); !errors.Is(err, ErrAdmissionDenied) {
		t.Errorf("over-boundary task: err = %v, want denial", err)
	}
}

func TestTable4GrantSet(t *testing.T) {
	// §4.1, Table 4: modem 10%, 3D 52%, MPEG 33% — but note the
	// paper's Table 4 3D entry (period 275,300, CPU 143,156) is an
	// intermediate allocation from policy, not a Table 3 row. Here we
	// verify the *structure* the paper demonstrates: all three tasks
	// hold simultaneous grants summing under 100%, with MPEG and
	// modem at their maxima.
	box := policy.NewBox()
	m := New(Config{Box: box})
	mid, err := m.RequestAdmittance(modemTask())
	if err != nil {
		t.Fatal(err)
	}
	gid, err := m.RequestAdmittance(graphics3DTask())
	if err != nil {
		t.Fatal(err)
	}
	pid, err := m.RequestAdmittance(mpegTask())
	if err != nil {
		t.Fatal(err)
	}
	gs := m.Grants()
	if gs.Len() != 3 {
		t.Fatalf("grant set has %d entries, want 3", gs.Len())
	}
	// Modem (10%) and MPEG (33.3%) can have their maxima; 3D must
	// shed to 40% or below (80+10+33.3 > 100).
	if gs.Of(mid).Level != 0 {
		t.Errorf("modem level = %d, want 0 (max)", gs.Of(mid).Level)
	}
	if gs.Of(pid).Entry.Fn == "" {
		t.Error("mpeg grant missing entry")
	}
	if !gs.TotalFrac().LessOrEqual(m.Available()) {
		t.Errorf("grant set total %.3f exceeds available", gs.TotalFrac().Float())
	}
	if gs.Of(gid).Entry.Rate().Percent() > 56 {
		t.Errorf("3d rate %.1f%% cannot fit alongside modem+mpeg", gs.Of(gid).Entry.Rate().Percent())
	}
	t.Logf("grant set:\n  modem %v\n  3d    %v\n  mpeg  %v", gs.Of(mid), gs.Of(gid), gs.Of(pid))
}

func TestUnderloadFastPathGivesMaxima(t *testing.T) {
	m := New(Config{})
	a, _ := m.RequestAdmittance(newTask("a", task.UniformLevels(270_000, "A", 30, 10)))
	b, _ := m.RequestAdmittance(newTask("b", task.UniformLevels(270_000, "B", 40, 10)))
	gs := m.Grants()
	if gs.Of(a).Level != 0 || gs.Of(b).Level != 0 {
		t.Errorf("underload levels = %d/%d, want 0/0", gs.Of(a).Level, gs.Of(b).Level)
	}
	if !m.LastOp().FastPath {
		t.Error("underload did not take the O(1) fast path")
	}
	if m.LastOp().PolicyConsulted {
		t.Error("Policy Box consulted in underload")
	}
}

func TestOverloadConsultsPolicyBox(t *testing.T) {
	m := New(Config{})
	m.RequestAdmittance(newTask("a", task.UniformLevels(270_000, "A", 90, 10)))
	m.RequestAdmittance(newTask("b", task.UniformLevels(270_000, "B", 90, 10)))
	op := m.LastOp()
	if op.FastPath {
		t.Error("overload took fast path")
	}
	if !op.PolicyConsulted || !op.PolicyInvented {
		t.Errorf("overload should consult and invent policy: %+v", op)
	}
	gs := m.Grants()
	if !gs.TotalFrac().LessOrEqual(m.Available()) {
		t.Errorf("overload grant set %.3f exceeds available", gs.TotalFrac().Float())
	}
}

func TestStoredPolicyShapesGrants(t *testing.T) {
	box := policy.NewBox()
	audio := box.Register("audio")
	video := box.Register("video")
	// User prefers audio at 60%, video at 35%.
	if err := box.SetDefault(policy.Policy{Shares: policy.Ranking{audio: 60, video: 35}}); err != nil {
		t.Fatal(err)
	}
	m := New(Config{Box: box})
	levels := []int{90, 80, 70, 60, 50, 40, 30, 20, 10}
	aid, _ := m.RequestAdmittance(newTask("audio", task.UniformLevels(270_000, "A", levels...)))
	vid, _ := m.RequestAdmittance(newTask("video", task.UniformLevels(270_000, "V", levels...)))
	gs := m.Grants()
	ar := gs.Of(aid).Entry.Rate().Percent()
	vr := gs.Of(vid).Entry.Rate().Percent()
	if ar <= vr {
		t.Errorf("audio %v%% should out-rank video %v%% under the 60/35 policy", ar, vr)
	}
	if ar < 55 || ar > 65 {
		t.Errorf("audio rate %v%%, want near its 60%% share", ar)
	}
	if !gs.TotalFrac().LessOrEqual(m.Available()) {
		t.Error("policy-shaped grants exceed available")
	}
}

func TestGrantSetOrderIndependence(t *testing.T) {
	// First principle: "The policy delivered is affected neither by
	// accidents of timing nor by the order of task creation."
	build := func(order []func() *task.Task) map[string]Grant {
		m := New(Config{})
		for _, f := range order {
			if _, err := m.RequestAdmittance(f()); err != nil {
				t.Fatal(err)
			}
		}
		out := make(map[string]Grant)
		for _, g := range m.Grants().All() {
			tk, _ := m.TaskByID(g.Task)
			out[tk.Name] = g
		}
		return out
	}
	fwd := build([]func() *task.Task{mpegTask, graphics3DTask, modemTask})
	rev := build([]func() *task.Task{modemTask, graphics3DTask, mpegTask})
	for name, g := range fwd {
		if rev[name].Level != g.Level {
			t.Errorf("task %s: level %d admitted one way, %d the other", name, g.Level, rev[name].Level)
		}
	}
}

func TestRemoveRestoresCapacity(t *testing.T) {
	m := New(Config{})
	a, _ := m.RequestAdmittance(newTask("a", task.UniformLevels(270_000, "A", 90, 10)))
	b, _ := m.RequestAdmittance(newTask("b", task.UniformLevels(270_000, "B", 90, 10)))
	if m.Grants().Of(b).Level == 0 {
		t.Fatal("precondition: b should be shed in overload")
	}
	if !m.Has(a) || !m.Has(b) {
		t.Error("Has does not know an admitted task")
	}
	if err := m.Remove(a); err != nil {
		t.Fatal(err)
	}
	if m.Has(a) || !m.Has(b) {
		t.Errorf("after Remove(a): Has(a) = %v, Has(b) = %v, want false, true", m.Has(a), m.Has(b))
	}
	gs := m.Grants()
	if _, ok := gs.Get(a); ok {
		t.Error("removed task still granted")
	}
	if gs.Of(b).Level != 0 {
		t.Errorf("b level = %d after removal, want 0 (back to max)", gs.Of(b).Level)
	}
	if err := m.Remove(a); !errors.Is(err, ErrUnknownTask) {
		t.Errorf("double remove: %v, want ErrUnknownTask", err)
	}
}

func TestQuiescentCountedForAdmissionNotGrants(t *testing.T) {
	m := New(Config{})
	// Quiescent modem: 10% minimum held in the admission sum.
	q := modemTask()
	q.StartQuiescent = true
	qid, err := m.RequestAdmittance(q)
	if err != nil {
		t.Fatal(err)
	}
	if st, _ := m.State(qid); st != task.Quiescent {
		t.Errorf("state = %v, want quiescent", st)
	}
	if _, ok := m.Grants().Get(qid); ok {
		t.Error("quiescent task received a grant")
	}
	// A 95%-minimum task no longer fits: the quiescent 10% is counted.
	if _, err := m.RequestAdmittance(newTask("big", task.SingleLevel(270_000, 256_500, "B"))); !errors.Is(err, ErrAdmissionDenied) {
		t.Errorf("task overlapping quiescent reservation admitted: %v", err)
	}
	// A 40%-minimum task fits; while modem is quiescent it gets its
	// 95% maximum — the freed reservation serves others (§5.3).
	big, err := m.RequestAdmittance(newTask("dvd", task.UniformLevels(270_000, "DVD", 95, 40)))
	if err != nil {
		t.Fatal(err)
	}
	if m.Grants().Of(big).Entry.Rate().Percent() != 95 {
		t.Errorf("dvd rate = %v, want 95%% while modem quiescent", m.Grants().Of(big).Entry.Rate())
	}
	// Wake the modem: guaranteed to succeed; dvd sheds load.
	if err := m.Wake(qid); err != nil {
		t.Fatal(err)
	}
	gs := m.Grants()
	if _, ok := gs.Get(qid); !ok {
		t.Fatal("woken task has no grant")
	}
	if gs.Of(qid).Entry.Rate().Percent() != 10 {
		t.Errorf("woken modem rate = %v, want 10%%", gs.Of(qid).Entry.Rate())
	}
	if gs.Of(big).Entry.Rate().Percent() != 40 {
		t.Errorf("dvd rate = %v after wake, want 40%%", gs.Of(big).Entry.Rate())
	}
	if !gs.TotalFrac().LessOrEqual(m.Available()) {
		t.Error("grants exceed available after wake")
	}
}

func TestWakeAlwaysSucceedsProperty(t *testing.T) {
	// §5.3: "when the task ceases to be quiescent, we are guaranteed
	// a grant set for all admitted tasks: at worst, all tasks receive
	// their minimum resource list entry."
	f := func(seed uint8) bool {
		m := New(Config{})
		var ids []task.ID
		var quiescent []task.ID
		pcts := [][]int{{90, 50, 10}, {80, 20}, {40, 10}, {30, 5}, {60, 15}}
		for i := 0; i < 5; i++ {
			tk := newTask(string(rune('a'+i)), task.UniformLevels(270_000, "T", pcts[(int(seed)+i)%len(pcts)]...))
			tk.StartQuiescent = (int(seed)+i)%2 == 0
			id, err := m.RequestAdmittance(tk)
			if err != nil {
				continue // denied is fine; admitted set stays sound
			}
			ids = append(ids, id)
			if tk.StartQuiescent {
				quiescent = append(quiescent, id)
			}
		}
		for _, q := range quiescent {
			if err := m.Wake(q); err != nil {
				return false
			}
		}
		gs := m.Grants()
		if gs.Len() != len(ids) {
			return false
		}
		return gs.TotalFrac().LessOrEqual(m.Available())
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestChangeResourceList(t *testing.T) {
	m := New(Config{})
	id, _ := m.RequestAdmittance(newTask("a", task.UniformLevels(270_000, "A", 30, 10)))
	if err := m.ChangeResourceList(id, task.UniformLevels(270_000, "A", 50, 20)); err != nil {
		t.Fatalf("legal change rejected: %v", err)
	}
	if got := m.Grants().Of(id).Entry.Rate().Percent(); got != 50 {
		t.Errorf("rate after change = %v%%, want 50", got)
	}
	// A change whose minimum cannot fit is rejected and leaves the
	// previous list intact.
	m.RequestAdmittance(newTask("b", task.SingleLevel(270_000, 216_000, "B"))) // 80% min
	err := m.ChangeResourceList(id, task.SingleLevel(270_000, 81_000, "A"))    // 30% min; 80+30>100
	if !errors.Is(err, ErrAdmissionDenied) {
		t.Errorf("infeasible change: %v, want denial", err)
	}
	if got := m.Grants().Of(id).Entry.Rate().Percent(); got != 20 {
		t.Errorf("rate after failed change = %v%%, want 20 (sheds for b)", got)
	}
}

func TestGrantNeverBetweenLevels(t *testing.T) {
	// "Resource allocations that do not map to a known service level
	// ... result either in a missed deadline or in unused resources."
	// Every grant must be exactly one of the task's entries.
	f := func(seed uint8, n uint8) bool {
		m := New(Config{InterruptReservePercent: 4})
		count := int(n%6) + 2
		lists := make(map[task.ID]task.ResourceList)
		for i := 0; i < count; i++ {
			levels := []int{90, 70, 50, 30, 10}[:int(seed+uint8(i))%4+1]
			rl := task.UniformLevels(270_000, "T", levels...)
			id, err := m.RequestAdmittance(newTask(string(rune('a'+i)), rl))
			if err != nil {
				continue
			}
			lists[id] = rl
		}
		for _, g := range m.Grants().All() {
			rl := lists[g.Task]
			if g.Level < 0 || g.Level >= len(rl) {
				return false
			}
			if rl[g.Level] != g.Entry {
				return false
			}
		}
		return m.Grants().TotalFrac().LessOrEqual(m.Available())
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestPendingAndCollect(t *testing.T) {
	m := New(Config{})
	if m.HasPending() {
		t.Error("fresh manager has pending grants")
	}
	id, _ := m.RequestAdmittance(modemTask())
	if !m.HasPending() {
		t.Error("admission did not mark grants pending")
	}
	gs := m.CollectGrants()
	if m.HasPending() {
		t.Error("CollectGrants did not clear pending")
	}
	if _, ok := gs.Get(id); !ok {
		t.Error("collected set missing admitted task")
	}
}

func TestHooksSignals(t *testing.T) {
	h := &recordingHooks{}
	m := New(Config{})
	m.SetHooks(h)
	a, _ := m.RequestAdmittance(newTask("a", task.UniformLevels(270_000, "A", 90, 30)))
	if !m.HasPending() {
		t.Error("admission left no grant set pending for the Scheduler's callback")
	}
	// Admitting b (a fixed 60% task that cannot shed) forces a to
	// shed from 90% to 30%: an immediate decrease signal for a.
	before := h.decreased
	m.RequestAdmittance(newTask("b", task.SingleLevel(270_000, 162_000, "B")))
	if h.decreased <= before {
		t.Error("overload decrease not signalled immediately")
	}
	m.Remove(a)
	if h.removed != 1 {
		t.Errorf("removed signals = %d, want 1", h.removed)
	}
}

type recordingHooks struct {
	decreased, removed int
}

func (r *recordingHooks) GrantDecreased(task.ID, Grant) { r.decreased++ }
func (r *recordingHooks) GrantRemoved(task.ID)          { r.removed++ }

func TestFigure5StaircaseGrants(t *testing.T) {
	// Table 6 / Figure 5: five threads, nine entries each (90%..10%
	// of a 10ms period), 4% interrupt reserve, plus a Sporadic Server
	// needing 1% per 100ms. As each thread is admitted the shares
	// drop 9 -> 4 -> 3 -> 2 -> 2 ms (with the sporadic server's 1%
	// and the reserve, the invented 1/N policy shakes out this way).
	m := New(Config{InterruptReservePercent: 4})
	ss, err := m.RequestAdmittance(newTask("sporadic", task.SingleLevel(2_700_000, 27_000, "SporadicServer")))
	if err != nil {
		t.Fatal(err)
	}
	levels := []int{90, 80, 70, 60, 50, 40, 30, 20, 10}
	wantMs := []int64{9, 4, 3, 2, 2}
	var ids []task.ID
	for i := 0; i < 5; i++ {
		id, err := m.RequestAdmittance(newTask(string(rune('2'+i)), task.UniformLevels(270_000, "BusyLoop", levels...)))
		if err != nil {
			t.Fatalf("thread %d denied: %v", i, err)
		}
		ids = append(ids, id)
		// After each admission, the first thread's allocation matches
		// the Figure 5 staircase.
		g := m.Grants().Of(ids[0])
		if got := g.Entry.CPU.Milliseconds(); got != wantMs[i] {
			t.Errorf("with %d threads: thread-2 allocation = %dms, want %dms (grant %v)",
				i+1, got, wantMs[i], g)
		}
	}
	gs := m.Grants()
	if _, ok := gs.Get(ss); !ok {
		t.Error("sporadic server lost its grant")
	}
	if !gs.TotalFrac().LessOrEqual(m.Available()) {
		t.Errorf("final staircase grants %.3f exceed available %.3f",
			gs.TotalFrac().Float(), m.Available().Float())
	}
}

func TestGrantSetHelpers(t *testing.T) {
	m := New(Config{})
	a, _ := m.RequestAdmittance(modemTask())
	b, _ := m.RequestAdmittance(mpegTask())
	gs := m.Grants()
	ids := gs.IDs()
	if len(ids) != 2 || ids[0] != a || ids[1] != b {
		t.Errorf("IDs = %v, want [%d %d]", ids, a, b)
	}
	cl := gs.Clone()
	if !cl.Equal(gs) {
		t.Error("clone not equal")
	}
	if g, ok := gs.Get(b); !ok || g != gs.All()[1] || gs.Of(b) != g {
		t.Errorf("Get(%d) = %v, %v; want the second grant %v", b, g, ok, gs.All()[1])
	}
	if g, ok := gs.Get(b + 1); ok || g != (Grant{}) || gs.Of(b+1) != (Grant{}) {
		t.Errorf("Get of an ungranted ID = %v, %v; want the zero Grant, false", g, ok)
	}
	// A clone owns its storage: the Manager dropping a task from its
	// set leaves the copy whole.
	if err := m.Remove(a); err != nil {
		t.Fatal(err)
	}
	if cl.Len() != 2 || m.Grants().Len() != 1 || cl.Equal(m.Grants()) {
		t.Errorf("after Remove: clone %v, committed %v", cl.IDs(), m.Grants().IDs())
	}
	if gs.Equal(GrantSet{}) || !(GrantSet{}).Equal(GrantSet{}) {
		t.Error("Equal confuses a non-empty set with the empty one")
	}
}

func TestCostModel(t *testing.T) {
	cm := DefaultCostModel()
	// Admission: constant, inside the 150-200us band (§6.2).
	admit := OpStats{Op: "admit", AdmissionChecks: 1, FastPath: true}
	c := cm.OpCost(admit, nil)
	us := c.MicrosecondsF()
	if us < 150 || us > 200+1 {
		t.Errorf("admission cost = %vus, want within [150,200] (+fast grant)", us)
	}
	// Overload cost grows with entries examined.
	small := cm.OpCost(OpStats{PolicyConsulted: true, EntriesExamined: 10}, nil)
	large := cm.OpCost(OpStats{PolicyConsulted: true, EntriesExamined: 100}, nil)
	if large <= small {
		t.Error("overload cost not increasing with entries examined")
	}
}

func TestUnknownTaskOperations(t *testing.T) {
	m := New(Config{})
	if err := m.SetQuiescent(99); !errors.Is(err, ErrUnknownTask) {
		t.Error("SetQuiescent on unknown id")
	}
	if err := m.Wake(99); !errors.Is(err, ErrUnknownTask) {
		t.Error("Wake on unknown id")
	}
	if err := m.ChangeResourceList(99, task.SingleLevel(270_000, 27_000, "X")); !errors.Is(err, ErrUnknownTask) {
		t.Error("ChangeResourceList on unknown id")
	}
	if _, err := m.State(99); !errors.Is(err, ErrUnknownTask) || err.Error() != "rm: unknown task: 99" {
		t.Errorf("State on unknown id: %v", err)
	}
	if m.Has(99) {
		t.Error("Has on unknown id")
	}
	if _, err := m.TaskByID(99); !errors.Is(err, ErrUnknownTask) {
		t.Error("TaskByID on unknown id")
	}
	if _, err := m.ListOf(99); !errors.Is(err, ErrUnknownTask) {
		t.Error("ListOf on unknown id")
	}
}

func TestSetQuiescentIdempotent(t *testing.T) {
	m := New(Config{})
	id, _ := m.RequestAdmittance(modemTask())
	if err := m.SetQuiescent(id); err != nil {
		t.Fatal(err)
	}
	if err := m.SetQuiescent(id); err != nil {
		t.Errorf("second SetQuiescent: %v", err)
	}
	if err := m.Wake(id); err != nil {
		t.Fatal(err)
	}
	if err := m.Wake(id); err != nil {
		t.Errorf("second Wake: %v", err)
	}
	if st, _ := m.State(id); st != task.Runnable {
		t.Errorf("state = %v, want runnable", st)
	}
}
