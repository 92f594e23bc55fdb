package core_test

import (
	"testing"

	"repro/internal/core"
	"repro/internal/sim"
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
