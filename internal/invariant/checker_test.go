package invariant_test

import (
	"slices"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/invariant"
	"repro/internal/rm"
	"repro/internal/sched"
	"repro/internal/sim"
	"repro/internal/task"
	"repro/internal/telemetry"
	"repro/internal/ticks"
)

const ms = ticks.PerMillisecond

// countingObserver proves the Checker chains events through.
type countingObserver struct{ n int }

func (c *countingObserver) OnDispatch(task.ID, string, ticks.Ticks, ticks.Ticks, sched.DispatchKind, int) {
	c.n++
}
func (c *countingObserver) OnPeriodStart(task.ID, ticks.Ticks, ticks.Ticks, int, ticks.Ticks) { c.n++ }
func (c *countingObserver) OnDeadlineMiss(task.ID, ticks.Ticks, ticks.Ticks)                  { c.n++ }
func (c *countingObserver) OnSwitch(sim.SwitchKind, ticks.Ticks)                              { c.n++ }
func (c *countingObserver) OnGrantApplied(task.ID, rm.Grant)                                  { c.n++ }
func (c *countingObserver) OnBlock(task.ID, ticks.Ticks)                                      { c.n++ }

// A healthy mixed workload — saturating, early-completing, and
// blocking tasks — must produce zero violations: the checker's job is
// catching faults, not inventing them.
func TestCleanRunHasNoViolations(t *testing.T) {
	inner := &countingObserver{}
	chk := invariant.New(inner)
	d := core.New(core.Config{Seed: 11, Observer: chk})
	chk.Bind(d.Kernel(), d.Manager(), d.Scheduler())

	mustAdmit(t, d, "saturate", 10*ms, 3*ms, task.PeriodicWork(3*ms))
	mustAdmit(t, d, "early", 10*ms, 2*ms, task.PeriodicWork(1*ms)) // uses half its grant
	mustAdmit(t, d, "blocker", 20*ms, 2*ms, task.WorkThenBlock(1*ms, 15*ms))
	mustAdmit(t, d, "greedy", 15*ms, 3*ms, task.Busy()) // overtime requester

	d.Run(ticks.FromMilliseconds(500))
	chk.Finish()

	if vs := chk.Violations(); len(vs) != 0 {
		t.Fatalf("clean run produced %d violations:\n%s", len(vs), renderAll(vs))
	}
	if chk.PeriodsClosed() == 0 {
		t.Fatal("checker closed no periods: it is not seeing the workload")
	}
	if inner.n == 0 {
		t.Fatal("chained observer received no events")
	}
}

// A run whose schedule records genuine deadline misses (an
// over-subscribed grant that cannot complete inside its period) is
// still invariant-clean: the contract is "delivered or recorded", and
// those misses are recorded.
func TestRecordedMissIsNotAViolation(t *testing.T) {
	// Synthetic stream: the checker must accept a period that closes
	// short, provided OnDeadlineMiss was observed for it.
	chk := invariant.New(nil)
	chk.OnPeriodStart(1, 0, 10*ms, 0, 3*ms)
	chk.OnDispatch(1, "t", 0, 1*ms, sched.DispatchGranted, 0)
	chk.OnDeadlineMiss(1, 10*ms, 2*ms)
	chk.OnPeriodStart(1, 10*ms, 20*ms, 0, 3*ms)
	if vs := chk.Violations(); len(vs) != 0 {
		t.Fatalf("recorded miss flagged as violation:\n%s", renderAll(vs))
	}
	if chk.PeriodsClosed() != 1 {
		t.Fatalf("PeriodsClosed = %d, want 1", chk.PeriodsClosed())
	}
}

// The core detection: a period that ends short of its grant with no
// recorded miss, no block, and no completion is a silent miss — the
// exact failure the paper's guarantee machinery must never allow.
func TestSilentMissIsDetected(t *testing.T) {
	var log telemetry.EventLog
	var sh invariant.Shell
	sh.Build(core.Config{}, true, &log)
	chk := sh.Checker()

	chk.OnPeriodStart(7, 0, 10*ms, 0, 3*ms)
	chk.OnDispatch(7, "t", 0, 1*ms, sched.DispatchGranted, 0)
	// Sporadic spans nested in another task's grant must not count
	// toward task 7's delivery.
	chk.OnDispatch(7, "t", 1*ms, 2*ms, sched.DispatchSporadic, 0)
	chk.OnPeriodStart(7, 10*ms, 20*ms, 0, 3*ms) // closes the shorted period

	vs := chk.Violations()
	if len(vs) != 1 {
		t.Fatalf("got %d violations, want 1:\n%s", len(vs), renderAll(vs))
	}
	v := vs[0]
	if v.Kind != "silent-miss" || v.Task != 7 {
		t.Errorf("violation = %+v, want silent-miss on task 7", v)
	}
	if v.Cursor.Seq == 0 {
		t.Error("violation carries no trace cursor")
	}
	if !strings.Contains(v.Detail, "delivered") {
		t.Errorf("detail %q does not describe the shortfall", v.Detail)
	}
	if log.CountKind("invariant.silent-miss") != 1 {
		t.Errorf("violation not mirrored to the event log:\n%s", log.String())
	}
}

// Blocking voids the open period (§4.2): a shorted period that blocked
// is not a miss of any kind.
func TestBlockedPeriodIsVoided(t *testing.T) {
	chk := invariant.New(nil)
	chk.OnPeriodStart(3, 0, 10*ms, 0, 3*ms)
	chk.OnDispatch(3, "t", 0, 1*ms, sched.DispatchGranted, 0)
	chk.OnBlock(3, 1*ms)
	chk.OnPeriodStart(3, 30*ms, 40*ms, 0, 3*ms) // resumes two windows later
	if vs := chk.Violations(); len(vs) != 0 {
		t.Fatalf("blocked period flagged:\n%s", renderAll(vs))
	}
}

// Grace spans count toward delivery: a task that receives part of its
// grant inside a §5.6 grace window got the CPU all the same.
func TestGraceDeliveryCounts(t *testing.T) {
	chk := invariant.New(nil)
	chk.OnPeriodStart(4, 0, 10*ms, 0, 3*ms)
	chk.OnDispatch(4, "t", 0, 2*ms, sched.DispatchGranted, 0)
	chk.OnDispatch(4, "t", 2*ms, 3*ms, sched.DispatchGrace, 0)
	chk.OnPeriodStart(4, 10*ms, 20*ms, 0, 3*ms)
	if vs := chk.Violations(); len(vs) != 0 {
		t.Fatalf("grace-completed period flagged:\n%s", renderAll(vs))
	}
}

// An unbound checker never panics: every Observer method and Finish
// must tolerate nil kernel/manager/scheduler (the checker may be wired
// before the system is assembled, or observe a partial assembly).
func TestUnboundCheckerNeverPanics(t *testing.T) {
	chk := invariant.New(nil)
	chk.OnPeriodStart(1, 0, 10*ms, 0, 3*ms)
	chk.OnDispatch(1, "t", 0, 3*ms, sched.DispatchGranted, 0)
	chk.OnSwitch(sim.Voluntary, 100)
	chk.OnGrantApplied(1, rm.Grant{})
	chk.OnDeadlineMiss(1, 10*ms, 0)
	chk.OnBlock(1, 5*ms)
	chk.Finish()
}

// Finish reports stuck periods in ascending task-ID order, and only
// for tasks the Scheduler still holds: a period planted long past its
// deadline on a live task is stuck, one on a terminated task is not.
func TestFinishReportsStuckPeriodsInIDOrder(t *testing.T) {
	chk := invariant.New(nil)
	d := core.New(core.Config{Seed: 3, Observer: chk})
	chk.Bind(d.Kernel(), d.Manager(), d.Scheduler())
	ids := make([]task.ID, 4)
	for i := range ids {
		ids[i] = mustAdmit(t, d, "t", 10*ms, ms, task.PeriodicWork(ms))
	}
	d.Run(100 * ms)
	if err := d.Terminate(ids[1]); err != nil {
		t.Fatal(err)
	}
	d.Run(20 * ms)
	for _, i := range []int{3, 1, 0} {
		chk.OnPeriodStart(ids[i], 0, 10*ms, 0, 0)
	}
	chk.Finish()
	var stuck []task.ID
	for _, v := range chk.Violations() {
		if v.Kind == "stuck-period" {
			stuck = append(stuck, v.Task)
		}
	}
	if want := []task.ID{ids[0], ids[3]}; !slices.Equal(stuck, want) {
		t.Errorf("stuck periods reported for %v, want %v", stuck, want)
	}
}

// --- helpers ---

func mustAdmit(t *testing.T, d *core.Distributor, name string, period, cpu ticks.Ticks, body task.Body) task.ID {
	t.Helper()
	id, err := d.RequestAdmittance(&task.Task{
		Name: name,
		List: task.ResourceList{{Period: period, CPU: cpu, Fn: name}},
		Body: body,
	})
	if err != nil {
		t.Fatalf("admit %s: %v", name, err)
	}
	return id
}

func renderAll(vs []invariant.Violation) string {
	var b strings.Builder
	for _, v := range vs {
		b.WriteString(v.String())
		b.WriteByte('\n')
	}
	return b.String()
}
