package sim

import (
	"testing"

	"repro/internal/ticks"
)

// A zero-delay self-rescheduling loop must trip the livelock guard and
// return control, not hang RunUntil forever (satellite: livelock guard).
func TestSameTickBudgetTripsOnZeroDelayLoop(t *testing.T) {
	k := NewKernel(Config{Seed: 1})
	fired := 0
	var loop func()
	loop = func() {
		fired++
		k.After(0, loop)
	}
	k.At(10, loop)

	k.RunUntil(1000)

	st, ok := k.Stalled()
	if !ok {
		t.Fatalf("livelock guard did not trip after %d same-tick events", fired)
	}
	if st.At != 10 {
		t.Errorf("stall at %v, want 10", st.At)
	}
	if st.Events != sameTickBudget+1 {
		t.Errorf("stall after %d events, want %d (the budget + the one over)", st.Events, sameTickBudget+1)
	}
	if fired != sameTickBudget {
		t.Errorf("loop body fired %d times, want exactly the budget (%d)", fired, sameTickBudget)
	}
	// The clock stays at the stall instant so callers can report it.
	if k.Now() != 10 {
		t.Errorf("clock at %v after stall, want 10", k.Now())
	}
	// A stalled kernel stops dispatching: further Step/RunUntil are no-ops.
	if k.Step() {
		t.Error("Step ran an event on a stalled kernel")
	}
	k.RunUntil(2000)
	if fired != sameTickBudget {
		t.Errorf("RunUntil on a stalled kernel ran events (fired=%d)", fired)
	}
}

// Legitimate same-instant cascades up to the budget must run
// unharmed, and the counter must reset when the clock moves.
func TestSameTickBudgetAllowsFiniteCascades(t *testing.T) {
	k := NewKernel(Config{Seed: 1})
	total := 0
	burst := func(at ticks.Ticks) {
		for i := 0; i < sameTickBudget; i++ { // exactly the budget, twice
			k.At(at, func() { total++ })
		}
	}
	burst(5)
	burst(9)
	k.RunUntil(100)
	if _, ok := k.Stalled(); ok {
		t.Fatal("guard tripped on a finite cascade within budget")
	}
	if total != 2*sameTickBudget {
		t.Errorf("ran %d events, want %d", total, 2*sameTickBudget)
	}
	if k.Now() != 100 {
		t.Errorf("clock at %v, want 100", k.Now())
	}
}

// TimerFault never delivers an event earlier than asked, and rounds
// delivery up onto the coalescing boundary.
func TestTimerFaultNeverEarly(t *testing.T) {
	f := NewTimerFault(SplitSeed(42, 17), 100, 16)
	for at := ticks.Ticks(0); at < 2000; at += 7 {
		got := f.adjust(at)
		if got < at {
			t.Fatalf("adjust(%v) = %v: delivered early", at, got)
		}
		if got > at+100+16 {
			t.Fatalf("adjust(%v) = %v: later than maxLate+coalesce allows", at, got)
		}
		if got%16 != 0 {
			t.Fatalf("adjust(%v) = %v: not on the coalescing boundary", at, got)
		}
	}
}

// With no fault installed, At keeps exact delivery and the kernel's
// RNG position — removing the fault restores byte-exact behaviour.
func TestTimerFaultInstallRemove(t *testing.T) {
	k := NewKernel(Config{Seed: 9})
	k.SetTimerFault(NewTimerFault(SplitSeed(9, 17), 50, 0))
	var faulted ticks.Ticks
	k.At(100, func() { faulted = k.Now() })
	k.RunUntil(200)
	if faulted < 100 {
		t.Fatalf("faulted delivery at %v, before requested 100", faulted)
	}

	k.SetTimerFault(nil)
	var exact ticks.Ticks
	k.At(300, func() { exact = k.Now() })
	k.RunUntil(400)
	if exact != 300 {
		t.Errorf("after removing the fault, delivery at %v, want exactly 300", exact)
	}
}

// The fault draws only from its own substream: two kernels with the
// same seed, one with a coalesce-only fault (zero RNG draws) and one
// without, advance their main RNGs identically.
func TestTimerFaultDoesNotPerturbMainStream(t *testing.T) {
	a := NewKernel(Config{Seed: 7})
	b := NewKernel(Config{Seed: 7})
	b.SetTimerFault(NewTimerFault(SplitSeed(7, 17), 0, 8))
	for i := 0; i < 64; i++ {
		a.At(ticks.Ticks(i*3), func() {})
		b.At(ticks.Ticks(i*3), func() {})
	}
	a.RunUntil(1000)
	b.RunUntil(1000)
	for i := 0; i < 16; i++ {
		if x, y := a.RNG().Uint64(), b.RNG().Uint64(); x != y {
			t.Fatalf("main RNG diverged at draw %d: %x vs %x", i, x, y)
		}
	}
}
