package core_test

import (
	"testing"

	"repro/internal/core"
	"repro/internal/sim"
	"repro/internal/telemetry"
	"repro/internal/ticks"
	"repro/internal/workload"
)

// BenchmarkTable2MPEGDecodeSecond measures one simulated second of
// MPEG decode at full quality (Table 2's top level) through a whole
// Distributor: construction, admission and the run loop.
func BenchmarkTable2MPEGDecodeSecond(b *testing.B) {
	for i := 0; i < b.N; i++ {
		m := workload.NewMPEG()
		costs := sim.ZeroSwitchCosts()
		d := core.New(core.Config{SwitchCosts: &costs})
		if _, err := d.RequestAdmittance(m.Task()); err != nil {
			b.Fatal(err)
		}
		d.Run(ticks.PerSecond)
		m.Flush()
		if st := m.Stats(); st.UnplannedLoss != 0 {
			b.Fatalf("losses at full quality: %s", st.QualityString())
		}
	}
}

// TestGovernorRearmAllocFree: a Distributor rebuilt in its own storage
// starts its overload governor, and the governor samples and re-arms at
// each millisecond inside a 10 ms run, without allocating — its state is
// the Distributor's and its timer a typed kernel event.
func TestGovernorRearmAllocFree(t *testing.T) {
	reg := telemetry.NewRegistry()
	cfg := core.Config{Seed: 1, InterruptReservePercent: 2, Telemetry: &telemetry.Set{Registry: reg}}
	d := core.New(cfg)
	rebuild := func() {
		d = core.NewIn(d, cfg)
		d.EnableOverloadGovernor(ticks.PerMillisecond)
		d.Run(10 * ticks.PerMillisecond)
	}
	rebuild()
	if n := testing.AllocsPerRun(20, rebuild); n != 0 {
		t.Errorf("a rebuilt governor allocates %v times per run, want 0", n)
	}
	if c, _ := reg.Lookup("core.governor.samples"); c == nil || c.Value() != 22*9 {
		t.Errorf("governor samples %v, want 198 (1–9 ms of 22 runs)", c)
	}
}

// TestGovernorSteadyOverloadAllocFree: a governor sample that finds the
// same overload as the last allocates nothing — its reason is a string
// built once per percent, which the Manager drops for a pressure it
// already applies.
func TestGovernorSteadyOverloadAllocFree(t *testing.T) {
	d := core.New(core.Config{Seed: 1, InterruptReservePercent: 2})
	if err := d.AddInterruptLoad(100*ticks.PerMicrosecond, 10*ticks.PerMicrosecond); err != nil {
		t.Fatal(err)
	}
	d.EnableOverloadGovernor(ticks.PerMillisecond)
	d.Run(5 * ticks.PerMillisecond)
	applied := len(d.Manager().DegradationEvents())
	if n := testing.AllocsPerRun(20, func() { d.Run(ticks.PerMillisecond) }); n != 0 {
		t.Errorf("a governor sample under a steady overload allocates %v times, want 0", n)
	}
	evs := d.Manager().DegradationEvents()
	if applied == 0 || len(evs) != applied || evs[applied-1].Reason != "interrupt load 8% over reserve" {
		t.Errorf("degradations %d before the measured samples, %v after: want a steady 8%% overload", applied, evs)
	}
}
