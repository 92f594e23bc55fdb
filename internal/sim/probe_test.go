package sim

import (
	"testing"

	"repro/internal/ticks"
)

// TestReadOnlyProbeAudit is the §-wide audit of the kernel's probes:
// every kernel entry point documented as read-only (Now,
// NextEventTime, Stats, CacheRefill) is hammered between events,
// switches, interrupts and accounting on one kernel but not its twin;
// the two runs must end in identical state.
func TestReadOnlyProbeAudit(t *testing.T) {
	costs := PaperSwitchCosts()
	costs.CacheRefillUS = 40
	run := func(probed bool) (Stats, []ticks.Ticks) {
		k := NewKernel(Config{Seed: 99, Costs: costs})
		probe := func() {
			if !probed {
				return
			}
			_ = k.Now()
			_, _ = k.NextEventTime()
			_ = k.Stats()
			_ = k.CacheRefill()
		}
		var sampled []ticks.Ticks
		for i := 0; i < 10; i++ {
			probe()
			k.At(k.Now()+50, func() { probe() })
			sampled = append(sampled, k.ChargeSwitch(Involuntary))
			probe()
			k.RunInterrupt(25)
			k.Busy(100)
			probe()
			k.Idle(10)
			sampled = append(sampled, k.ChargeSwitch(Voluntary))
		}
		return k.Stats(), sampled
	}
	cleanStats, cleanCosts := run(false)
	probedStats, probedCosts := run(true)
	if cleanStats != probedStats {
		t.Errorf("probes perturbed kernel state: %+v vs %+v", cleanStats, probedStats)
	}
	for i := range cleanCosts {
		if cleanCosts[i] != probedCosts[i] {
			t.Fatalf("probes perturbed charged cost %d: %v vs %v", i, cleanCosts[i], probedCosts[i])
		}
	}
}

// --- AdvanceThrough / ChargeSwitch re-entrancy ---

// TestAdvanceThroughEventsSchedulingEventsInWindow covers events that
// fire inside an advanced window and schedule further events inside
// the same window: everything due within the window fires, in time
// order, and the clock lands exactly at the window end.
func TestAdvanceThroughEventsSchedulingEventsInWindow(t *testing.T) {
	k := NewKernel(Config{})
	var order []int
	k.At(10, func() {
		order = append(order, 10)
		k.At(15, func() { order = append(order, 15) }) // inside the window
		k.At(25, func() { order = append(order, 25) }) // outside
	})
	k.At(20, func() { order = append(order, 20) })
	k.AdvanceThrough(20)
	want := []int{10, 15, 20}
	if len(order) != len(want) {
		t.Fatalf("fired %v, want %v", order, want)
	}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("fired %v, want %v", order, want)
		}
	}
	if k.Now() != 20 {
		t.Errorf("clock = %v after AdvanceThrough(20), want 20", k.Now())
	}
	if at, ok := k.NextEventTime(); !ok || at != 25 {
		t.Errorf("event scheduled past the window lost: next = %v/%v, want 25", at, ok)
	}
}

// TestAdvanceThroughSameInstantChain: an event that schedules another
// event at its own instant runs it within the same window, FIFO after
// events already queued at that instant.
func TestAdvanceThroughSameInstantChain(t *testing.T) {
	k := NewKernel(Config{})
	var order []string
	k.At(10, func() {
		order = append(order, "a")
		k.At(10, func() { order = append(order, "c") }) // same instant, queued behind b
	})
	k.At(10, func() { order = append(order, "b") })
	k.AdvanceThrough(10)
	if got := len(order); got != 3 || order[0] != "a" || order[1] != "b" || order[2] != "c" {
		t.Fatalf("same-instant chain fired as %v, want [a b c]", order)
	}
	if k.Now() != 10 {
		t.Errorf("clock = %v, want 10", k.Now())
	}
}

// TestChargeSwitchFiresEventsInsideSwitchWindow: timers and external
// events keep firing while the CPU is busy inside a context switch,
// including events scheduled by events inside that same switch.
func TestChargeSwitchFiresEventsInsideSwitchWindow(t *testing.T) {
	// Deterministic 10 µs (= 270-tick) voluntary switches.
	costs := SwitchCosts{Deterministic: true, Vol: CostDist{Mean: 10}, Invol: CostDist{Mean: 10}}
	k := NewKernel(Config{Costs: costs})
	var order []int
	k.At(100, func() {
		order = append(order, 100)
		k.At(150, func() { order = append(order, 150) }) // inside the switch
		k.At(500, func() { order = append(order, 500) }) // past it
	})
	k.At(200, func() { order = append(order, 200) })
	c := k.ChargeSwitch(Voluntary)
	if c != 270 {
		t.Fatalf("deterministic 10µs switch cost = %v ticks, want 270", c)
	}
	want := []int{100, 150, 200}
	if len(order) != len(want) {
		t.Fatalf("fired %v, want %v", order, want)
	}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("fired %v, want %v", order, want)
		}
	}
	if k.Now() != 270 {
		t.Errorf("clock = %v after the switch, want 270", k.Now())
	}
	st := k.Stats()
	if st.VolSwitches != 1 || st.SwitchTicks != 270 {
		t.Errorf("switch counters = %+v, want 1 voluntary / 270 ticks", st)
	}
}

// TestAdvanceThroughReentrantInterrupt: an event inside the window
// runs an interrupt handler that itself advances the clock past the
// window end — the documented §5.2 semantics: interrupt service is
// not preemptable by the window, so the clock ends at the interrupt's
// end and events due in the overrun fire too.
func TestAdvanceThroughReentrantInterrupt(t *testing.T) {
	k := NewKernel(Config{})
	var order []int
	k.At(10, func() {
		order = append(order, 10)
		k.RunInterrupt(50) // runs to t=60, past the window end of 20
	})
	k.At(30, func() { order = append(order, 30) }) // inside the interrupt overrun
	k.AdvanceThrough(20)
	if len(order) != 2 || order[0] != 10 || order[1] != 30 {
		t.Fatalf("fired %v, want [10 30]", order)
	}
	if k.Now() != 60 {
		t.Errorf("clock = %v, want 60 (interrupt service extends past the window)", k.Now())
	}
	st := k.Stats()
	if st.Interrupts != 1 || st.InterruptTicks != 50 {
		t.Errorf("interrupt counters = %+v", st)
	}
}
