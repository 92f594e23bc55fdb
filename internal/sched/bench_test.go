package sched

import (
	"fmt"
	"testing"

	"repro/internal/rm"
	"repro/internal/sim"
	"repro/internal/task"
	"repro/internal/telemetry"
	"repro/internal/ticks"
)

// rolloverSystem builds a scheduler with one steady periodic task (3ms
// of work in a 10ms period) and runs it past its admission transient,
// so that everything left on the hot path is the period-rollover
// cycle: timer fires, period closes, new period begins, task runs to
// completion, kernel idles to the next boundary.
func rolloverSystem(tb testing.TB) (*sim.Kernel, *Scheduler) {
	// Counters on: the 0 allocs/op pin below must hold with live
	// telemetry handles, not just the nil no-op ones (spans stay off —
	// the span log appends, which amortizes but is not alloc-free).
	tel := &telemetry.Set{Registry: telemetry.NewRegistry()}
	k := sim.NewKernel(sim.Config{Seed: 1, Costs: sim.ZeroSwitchCosts()})
	k.EnableTelemetry(tel.Reg())
	m := rm.New(rm.Config{})
	m.EnableTelemetry(tel, k.Now)
	s := New(Config{Kernel: k, RM: m, Telemetry: tel})
	m.SetHooks(s)
	if _, err := m.RequestAdmittance(&task.Task{
		Name: "worker",
		List: task.SingleLevel(10*ms, 3*ms, "Work"),
		Body: task.PeriodicWork(3 * ms),
	}); err != nil {
		tb.Fatalf("admit: %v", err)
	}
	s.RunUntil(100 * ms)
	return k, s
}

// BenchmarkPeriodRollover measures one full period of the steady
// state: the closure-free wake timer, beginPeriod, a granted dispatch
// to completion, and the idle skip to the next boundary. Steady state
// must be 0 allocs/op — TestPeriodRolloverSteadyStateIsAllocFree
// enforces it.
func BenchmarkPeriodRollover(b *testing.B) {
	k, s := rolloverSystem(b)
	limit := k.Now()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		limit += 10 * ms
		s.RunUntil(limit)
	}
}

func TestPeriodRolloverSteadyStateIsAllocFree(t *testing.T) {
	k, s := rolloverSystem(t)
	limit := k.Now()
	allocs := testing.AllocsPerRun(200, func() {
		limit += 10 * ms
		s.RunUntil(limit)
	})
	if allocs != 0 {
		t.Fatalf("period rollover steady state = %v allocs/op, want 0", allocs)
	}
	st, ok := s.Stats(task.ID(1))
	if !ok || st.Periods == 0 {
		t.Fatal("task never rolled a period: the measurement measured nothing")
	}
}

// nameObserver is an attached Observer that reads the dispatch name it
// is handed, as a trace recorder or timeline would.
type nameObserver struct {
	NopObserver
	sporadic, assigned int64
}

func (o *nameObserver) OnDispatch(_ task.ID, name string, _, _ ticks.Ticks, kind DispatchKind, _ int) {
	if kind != DispatchSporadic {
		return
	}
	switch name {
	case "sporadic:bg":
		o.sporadic++
	case "assigned:bg":
		o.assigned++
	}
}

// sporadicSystem builds a scheduler, observer attached and counters
// on, whose every 10 ms period holds one non-real-time dispatch of the
// sporadic task "bg": through the Sporadic Server (3 ms grant), or —
// assigned — through a periodic donor that has handed bg its own grant
// by AssignGrant for longer than any test runs.
func sporadicSystem(tb testing.TB, assigned bool) (*sim.Kernel, *Scheduler, *nameObserver) {
	obs := &nameObserver{}
	tel := &telemetry.Set{Registry: telemetry.NewRegistry()}
	k := sim.NewKernel(sim.Config{Seed: 1, Costs: sim.ZeroSwitchCosts()})
	k.EnableTelemetry(tel.Reg())
	m := rm.New(rm.Config{})
	m.EnableTelemetry(tel, k.Now)
	s := New(Config{Kernel: k, RM: m, Observer: obs, Telemetry: tel})
	m.SetHooks(s)
	id, err := m.RequestAdmittance(&task.Task{
		Name: "host",
		List: task.SingleLevel(10*ms, 3*ms, "Host"),
		Body: task.PeriodicWork(3 * ms),
	})
	if err != nil {
		tb.Fatalf("admit: %v", err)
	}
	sp := s.AddSporadic("bg", task.BusySilent())
	if assigned {
		s.RunUntil(1) // the donor must hold its grant before it can assign it
		err = s.AssignGrant(id, sp, ticks.PerSecond*3600)
	} else {
		err = s.AttachSporadicServer(id, false)
	}
	if err != nil {
		tb.Fatal(err)
	}
	s.RunUntil(100 * ms)
	return k, s, obs
}

// BenchmarkSporadicDispatch measures one period of the Sporadic
// Server's steady state: rollover, the server's granted dispatch
// handing its slice to a sporadic task, the Observer told under the
// task's cached "sporadic:" name. TestSporadicDispatchAllocs pins it
// (and the AssignGrant form) at 0 allocs/op.
func BenchmarkSporadicDispatch(b *testing.B) {
	k, s, _ := sporadicSystem(b, false)
	limit := k.Now()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		limit += 10 * ms
		s.RunUntil(limit)
	}
}

func TestSporadicDispatchAllocs(t *testing.T) {
	for _, assigned := range []bool{false, true} {
		k, s, obs := sporadicSystem(t, assigned)
		limit := k.Now()
		before := *obs
		allocs := testing.AllocsPerRun(200, func() {
			limit += 10 * ms
			s.RunUntil(limit)
		})
		ran := obs.sporadic - before.sporadic
		if assigned {
			ran = obs.assigned - before.assigned
		}
		if ran < 200 {
			t.Fatalf("assigned=%v: observer saw %d sporadic dispatches in 200 periods: the measurement measured nothing", assigned, ran)
		}
		if allocs != 0 {
			t.Errorf("assigned=%v: sporadic dispatch steady state = %v allocs/op, want 0", assigned, allocs)
		}
	}
}

// BenchmarkSchedulerSteadyState measures scheduling one simulated
// second with ten periodic tasks, built from nothing each iteration —
// the simulator's core loop throughput.
func BenchmarkSchedulerSteadyState(b *testing.B) {
	for i := 0; i < b.N; i++ {
		k := sim.NewKernel(sim.Config{Costs: sim.ZeroSwitchCosts()})
		m := rm.New(rm.Config{})
		s := New(Config{Kernel: k, RM: m})
		m.SetHooks(s)
		for j := 0; j < 10; j++ {
			if _, err := m.RequestAdmittance(&task.Task{
				Name: fmt.Sprintf("t%d", j),
				List: task.SingleLevel(10*ms, ms/2, "T"),
				Body: task.PeriodicWork(ms / 2),
			}); err != nil {
				b.Fatal(err)
			}
		}
		s.RunUntil(ticks.PerSecond)
	}
}
