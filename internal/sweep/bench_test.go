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

// BenchmarkFleetRun measures one fleet-crash cell (120 nodes,
// least-loaded, 700 ms) on a warm sweep worker — the arena, registry
// and arrival names kept from the run before, as every fleet cell of a
// sweep but a worker's first finds them. Its allocs/op and B/op are a
// fleet run's allocation level.
func BenchmarkFleetRun(b *testing.B) {
	spec := fleetRunSpec
	w := newWorker()
	if out := runOne(spec, w); out.Err != "" {
		b.Fatalf("run failed: %s", out.Err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if out := runOne(spec, w); out.Err != "" {
			b.Fatalf("run failed: %s", out.Err)
		}
	}
}

// fleetRunSpec is BenchmarkFleetRun's cell.
var fleetRunSpec = RunSpec{
	Scenario:  "fleet-crash",
	CostModel: "paper",
	Policy:    PolicyFleetLeastLoaded,
	Seed:      1,
	Horizon:   700 * ticks.PerMillisecond,
}

// TestFleetRunAllocCeiling holds BenchmarkFleetRun's cell on a warm
// sweep worker under a ceiling of its allocation count when the ceiling
// was set (570) plus 10 %, so a site that allocates again per placement
// scan, per body, per node incarnation, per storm burst or per governor
// sample fails go test, not only bench-smoke's ±15 % gate.
func TestFleetRunAllocCeiling(t *testing.T) {
	const ceiling = 627
	if raceEnabled {
		t.Skip("allocation counts differ under the race detector")
	}
	w := newWorker()
	run := func() {
		if out := runOne(fleetRunSpec, w); out.Err != "" {
			t.Fatalf("run failed: %s", out.Err)
		}
	}
	run()
	n := testing.AllocsPerRun(3, run)
	if n > ceiling {
		t.Errorf("a warm fleet-crash cell allocates %v times, over the ceiling of %d", n, ceiling)
	}
	t.Logf("a warm fleet-crash cell allocates %v times (ceiling %d)", n, ceiling)
}
