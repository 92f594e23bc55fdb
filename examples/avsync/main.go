// Avsync reproduces the §5.4 clock-synchronization scenario the
// realistic way: a display task paced by an external 100 Hz crystal
// that drifts against the scheduling clock. The task can only *read*
// both clocks — it has no access to the true drift — so it estimates
// the skew from paired readings exactly as the paper prescribes, and
// stretches its periods with InsertIdleCycles (postpone-only) to stay
// phase-locked. An uncompensated control run is shown for contrast.
//
//	go run ./examples/avsync
package main

import (
	"fmt"
	"log"

	"repro/internal/core"
	"repro/internal/extclock"
	"repro/internal/task"
	"repro/internal/ticks"
	"repro/internal/workload"
)

const ms = ticks.PerMillisecond

func main() {
	const driftPPM = 140.0
	extPeriod := ticks.Ticks(270_000) // one frame in external ticks
	nominal := ticks.Ticks(269_200)   // run slightly short; stretch to fit

	fmt.Printf("external refresh crystal: 100 Hz, drifting %+.0f ppm\n", driftPPM)
	fmt.Printf("task period: nominal %d ticks, stretched per period\n\n", nominal)

	for _, compensate := range []bool{false, true} {
		ext := extclock.New(driftPPM, 0)
		oracle, err := extclock.NewPhaseLock(ext, extPeriod, nominal)
		if err != nil {
			log.Fatal(err)
		}
		lock, err := extclock.NewEstimatingPhaseLock(extPeriod, nominal, 0.5)
		if err != nil {
			log.Fatal(err)
		}
		d := core.New(core.Config{Seed: 9})

		// All the app can do: read both clocks at each period start.
		// The error is measured after the estimator's five warm-up periods.
		display, err := workload.PhaseLockedDisplay(d, oracle, nominal, 5, func(ctx task.RunContext) ticks.Ticks {
			lock.Observe(ctx.Now, ext.ReadAt(ctx.Now))
			if !compensate {
				return 0
			}
			return lock.Insertion(ctx.PeriodStart, ctx.Now, ext.ReadAt(ctx.Now))
		})
		if err != nil {
			log.Fatal(err)
		}
		// A second real-time task shares the machine; phase locking
		// must not disturb it.
		worker, err := d.RequestAdmittance(&task.Task{
			Name: "worker",
			List: task.SingleLevel(10*ms, 4*ms, "Work"),
			Body: task.PeriodicWork(4 * ms),
		})
		if err != nil {
			log.Fatal(err)
		}

		d.Run(10 * ticks.PerSecond)

		mode := "uncompensated"
		if compensate {
			mode = "estimator-locked"
		}
		wst, _ := d.Stats(worker)
		fmt.Printf("%-17s %4d periods, max phase error %8.1f us, drift estimate %+6.1f ppm, worker misses %d\n",
			mode, display.Periods, display.MaxPhaseError.MicrosecondsF(), lock.Rate(), wst.Misses)
	}

	fmt.Println("\nuncompensated drift accumulates to a full dropped/duplicated frame;")
	fmt.Println("the estimator lock holds every period start on a boundary using only")
	fmt.Println("clock readings, and the postpone-only rule protects the other task.")
}
