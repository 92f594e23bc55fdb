package invariant_test

import (
	"fmt"
	"testing"

	"repro/internal/core"
	"repro/internal/invariant"
	"repro/internal/sched"
	"repro/internal/sim"
	"repro/internal/task"
)

// checkedSystem is a Checker bound to a live ten-task Distributor that
// has run past its admission transient, so every task has an open
// period and the Scheduler's queues are populated. feed replays one
// task's period — its grant delivered in one dispatch, then the next
// period start — straight into the Checker: exactly the callbacks, and
// the committed-fraction and structural checks behind them, with none
// of the simulation's own cost.
func checkedSystem(tb testing.TB) (chk *invariant.Checker, feed func()) {
	chk = invariant.New(nil)
	zero := sim.ZeroSwitchCosts()
	d := core.New(core.Config{Seed: 1, SwitchCosts: &zero, Observer: chk})
	chk.Bind(d.Kernel(), d.Manager(), d.Scheduler())
	const period, cpu = 10 * ms, ms / 2
	ids := make([]task.ID, 10)
	for i := range ids {
		id, err := d.RequestAdmittance(&task.Task{
			Name: fmt.Sprintf("t%d", i),
			List: task.SingleLevel(period, cpu, "T"),
			Body: task.PeriodicWork(cpu),
		})
		if err != nil {
			tb.Fatal(err)
		}
		ids[i] = id
	}
	d.Run(100 * ms)
	if chk.PeriodsClosed() == 0 || chk.NViolations() != 0 {
		tb.Fatalf("setup: %d periods closed, %d violations", chk.PeriodsClosed(), chk.NViolations())
	}
	start := d.Kernel().Now()
	next := 0
	return chk, func() {
		id := ids[next%len(ids)]
		if next++; next%len(ids) == 0 {
			start += period
		}
		chk.OnDispatch(id, "t", start-period, start-period+cpu, sched.DispatchGranted, 0)
		chk.OnPeriodStart(id, start, start+period, 0, cpu)
	}
}

// BenchmarkInvariantPeriod measures what the Checker adds to one task
// period: one OnDispatch, and an OnPeriodStart that closes the period,
// finds the committed grant set unchanged, and — once per round of ten
// period starts — audits the Scheduler's structure over ten tasks.
func BenchmarkInvariantPeriod(b *testing.B) {
	chk, feed := checkedSystem(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		feed()
	}
	b.StopTimer()
	if chk.NViolations() != 0 {
		b.Fatalf("checker fired on a feasible schedule: %v", chk.Violations())
	}
}

// TestCheckerSteadyStateAllocFree pins the recurring path: once every
// task has an open period, dispatches and period starts are checked —
// the rounds' structural audits included — without allocating.
func TestCheckerSteadyStateAllocFree(t *testing.T) {
	chk, feed := checkedSystem(t)
	before := chk.PeriodsClosed()
	if n := testing.AllocsPerRun(500, feed); n != 0 {
		t.Errorf("OnDispatch+OnPeriodStart allocate %v objects per period, want 0", n)
	}
	if chk.PeriodsClosed() <= before || chk.NViolations() != 0 {
		t.Fatalf("checker closed %d periods with %d violations during the measurement",
			chk.PeriodsClosed()-before, chk.NViolations())
	}
}
