package sweep

import (
	"testing"

	"repro/internal/ticks"
)

// BenchmarkSweepCell measures one full sweep run — the unit the
// rdsweep matrix multiplies by (scenarios × cost models × policies ×
// seeds). Construction allocations (kernel, manager, scheduler,
// workloads) are inherent here; the figure to watch is ns/op, which
// bounds achievable runs/sec.
func BenchmarkSweepCell(b *testing.B) {
	spec := RunSpec{
		Scenario:  "settop",
		CostModel: "paper",
		Policy:    PolicyInvent,
		Seed:      1,
		Horizon:   2 * ticks.PerSecond,
	}
	w := newWorker()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		out := runOne(spec, w)
		if out.Err != "" {
			b.Fatalf("run failed: %s", out.Err)
		}
	}
}
