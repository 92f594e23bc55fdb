package invariant_test

import (
	"testing"

	"repro/internal/core"
	"repro/internal/invariant"
	"repro/internal/sched"
	"repro/internal/sim"
	"repro/internal/task"
	"repro/internal/telemetry"
)

// TestShellWarmRebuild alternates checked and unchecked builds in one
// Shell, as a sweep worker alternates fault-* and paper cells: a warm
// build and its first periods allocate nothing, an unchecked build
// shows no Checker, and a checked build after a violating run starts
// with none of that run's violations.
func TestShellWarmRebuild(t *testing.T) {
	var (
		sh    invariant.Shell
		log   telemetry.EventLog
		tel   = &telemetry.Set{Registry: telemetry.NewRegistry()}
		costs = sim.ZeroSwitchCosts()
		// The Manager copies what it admits, so one descriptor serves
		// every build.
		resident = task.Task{Name: "r", List: task.SingleLevel(10*ms, 2*ms, "R"), Body: task.Busy()}
	)
	build := func(checked bool) *core.Distributor {
		tel.Registry.Reset()
		log.Reset()
		d := sh.Build(core.Config{Seed: 1, SwitchCosts: &costs, Telemetry: tel}, checked, &log)
		if _, err := d.RequestAdmittance(&resident); err != nil {
			t.Fatal(err)
		}
		d.Run(50 * ms)
		return d
	}
	run := func(checked bool) (violations, degradations int64) {
		build(checked)
		if got := sh.Checker() != nil; got != checked {
			t.Fatalf("checked build %v shows a Checker: %v", checked, got)
		}
		return sh.Retire(true)
	}

	// A violating run: a period planted on the live Checker closes short
	// with nothing recorded, a silent miss.
	build(true)
	chk := sh.Checker()
	chk.OnPeriodStart(99, 0, 10*ms, 0, 3*ms)
	chk.OnDispatch(99, "planted", 0, ms, sched.DispatchGranted, 0)
	chk.OnPeriodStart(99, 10*ms, 20*ms, 0, 3*ms)
	if v, _ := sh.Retire(true); v != 1 {
		t.Fatalf("the violating run retired with %d violations, want 1:\n%s", v, log.String())
	}
	if snap := tel.Reg().Snapshot(); snap.CounterValue("invariant.violations") != 1 || log.CountKind("invariant.silent-miss") != 1 {
		t.Fatalf("the violation is not counted and logged once:\n%s", log.String())
	}
	if sh.Checker() != nil {
		t.Fatal("a retired shell still shows its Checker")
	}
	if v, _ := run(false); v != 0 {
		t.Fatalf("an unchecked run reported %d violations", v)
	}
	if v, _ := run(true); v != 0 {
		t.Fatalf("the checked run after a violating one reported %d violations:\n%s", v, log.String())
	}

	for _, checked := range []bool{true, false} {
		if got := testing.AllocsPerRun(10, func() { run(checked); run(!checked) }); got != 0 {
			t.Errorf("a warm checked/unchecked rebuild pair (checked first: %v) allocates %v times, want 0", checked, got)
		}
	}
}
