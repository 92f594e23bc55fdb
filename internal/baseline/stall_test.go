package baseline

import (
	"testing"

	"repro/internal/sim"
	"repro/internal/task"
	"repro/internal/ticks"
)

// A kernel that trips its same-tick livelock guard stops dispatching
// events. A comparator's RunUntil must then return with the clock at
// the stall instant, as sched.Scheduler.RunUntil does, and not try to
// dispatch a slice that the stalled event leaves no room for.
func TestStalledKernelEndsComparatorRun(t *testing.T) {
	cases := []struct {
		name  string
		build func(k *sim.Kernel) (func(ticks.Ticks), error)
	}{
		{"Reserves", func(k *sim.Kernel) (func(ticks.Ticks), error) {
			r := NewReserves(k)
			return r.RunUntil, r.Reserve("t", 10*ms, 5*ms, task.Busy())
		}},
		{"Rialto", func(k *sim.Kernel) (func(ticks.Ticks), error) {
			r := NewRialto(k)
			return r.RunUntil, r.AddTask("t", 10*ms, 5*ms)
		}},
		{"Stride", func(k *sim.Kernel) (func(ticks.Ticks), error) {
			s := NewStride(k, ms)
			s.Add("t", 10*ms, 1, task.Busy())
			return s.RunUntil, nil
		}},
	}
	for _, c := range cases {
		k := kernel()
		run, err := c.build(k)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		// The task is runnable at 3 ms: its 5 ms reservation (or its
		// Busy body) has not run out.
		var again func()
		again = func() { k.At(k.Now(), again) }
		k.At(3*ms, again)
		run(10 * ms)
		if info, stalled := k.Stalled(); !stalled || info.At != 3*ms || k.Now() != 3*ms {
			t.Errorf("%s: RunUntil returned at %v, stalled %v at %v; want the run to end at the 3 ms stall",
				c.name, k.Now(), stalled, info.At)
		}
	}
}
