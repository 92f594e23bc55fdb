package main

import (
	"testing"

	"repro/internal/core"
	"repro/internal/ticks"
	"repro/internal/trace"
)

// Every scenario sets up without a denial and runs two seconds with
// no deadline miss, on a Distributor configured as main configures it.
func TestScenariosRunWithoutMisses(t *testing.T) {
	for _, sc := range scenarios {
		t.Run(sc.name, func(t *testing.T) {
			rec := trace.New()
			d := core.New(core.Config{Seed: 1, InterruptReservePercent: sc.reserve, Observer: rec})
			report, err := sc.setup(d)
			if err != nil {
				t.Fatalf("setup: %v", err)
			}
			d.Run(2 * ticks.PerSecond)
			if report != nil {
				report()
			}
			if n := rec.MissCount(); n != 0 {
				t.Errorf("%d deadline misses, want 0", n)
			}
		})
	}
}
