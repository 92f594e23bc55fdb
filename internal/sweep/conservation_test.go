package sweep

import (
	"testing"

	"repro/internal/sim"
	"repro/internal/ticks"
)

// checkConserved holds a kernel to "every tick went somewhere": busy,
// idle, switch and interrupt time add up to the clock. An interrupt that
// fires inside a switch-cost span occupies ticks the switch already
// counted, so a run that raised interrupts may overshoot by up to its
// interrupt time; it may never fall short. It returns the overshoot.
func checkConserved(t *testing.T, what string, st sim.Stats) ticks.Ticks {
	t.Helper()
	sum := st.BusyTicks + st.IdleTicks + st.SwitchTicks + st.InterruptTicks
	switch {
	case st.Interrupts == 0 && sum != st.Now:
		t.Errorf("%s: busy+idle+switch+interrupt = %d, clock = %d", what, int64(sum), int64(st.Now))
	case sum < st.Now || sum > st.Now+st.InterruptTicks:
		t.Errorf("%s: busy+idle+switch+interrupt = %d outside [clock %d, clock + interrupt ticks %d]",
			what, int64(sum), int64(st.Now), int64(st.Now+st.InterruptTicks))
	}
	return sum - st.Now
}

// TestKernelTimeConservation runs every single-node registry cell under
// both cost models and checks the kernel's four buckets against its
// clock. sim.Kernel.Busy and Idle are the only ways to move the clock
// outside an event, a switch or an interrupt, so a scheduler cannot
// leave a tick unaccounted; this is the end-to-end half of that claim.
func TestKernelTimeConservation(t *testing.T) {
	var names []string
	for _, sc := range Scenarios() {
		if sc.Family != FleetFamily {
			names = append(names, sc.Name)
		}
	}
	specs, err := Matrix{Scenarios: names, Seeds: []uint64{3}, Horizon: 700 * ticks.PerMillisecond}.Specs()
	if err != nil {
		t.Fatal(err)
	}
	w := newWorker()
	for _, spec := range specs {
		e, err := newEnv(spec, w)
		if err == nil {
			err = e.sc.run(e)
		}
		if err != nil {
			t.Fatalf("%s/%s/%s: %v", spec.Scenario, spec.CostModel, spec.Policy, err)
		}
		what := spec.Scenario + "/" + spec.CostModel + "/" + spec.Policy
		over := checkConserved(t, what, e.k.Stats())
		// The one double count in the matrix, and its size: studio is the
		// only cell with both an interrupt load and stochastic switch
		// costs (docs/SIMULATOR.md "Where a tick goes" quotes this).
		want := ticks.Ticks(0)
		if spec.Scenario == "studio" && spec.CostModel == "paper" {
			want = 436
		}
		if over != want {
			t.Errorf("%s: %d ticks counted twice, want %d", what, int64(over), int64(want))
		}
	}
	t.Logf("%d cells", len(specs))
}
