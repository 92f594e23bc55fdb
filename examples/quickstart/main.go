// Quickstart: admit two tasks to the ETI Resource Distributor, run
// one simulated second, and print the grant set and per-task
// accounting.
//
//	go run ./examples/quickstart
package main

import (
	"fmt"
	"log"

	"repro/internal/core"
	"repro/internal/task"
	"repro/internal/ticks"
)

func main() {
	d := core.New(core.Config{})

	// An MPEG-like decoder: 30 frames/s, one third of the CPU at top
	// quality, with one load-shedding level (Table 2 is the full
	// four-level menu; see examples/settopbox).
	mpeg, err := d.RequestAdmittance(&task.Task{
		Name: "mpeg",
		List: task.ResourceList{
			{Period: 900_000, CPU: 300_000, Fn: "FullDecompress"},
			{Period: 900_000, CPU: 150_000, Fn: "HalfRes"},
		},
		Body: task.PeriodicWork(300_000),
	})
	if err != nil {
		log.Fatalf("admit mpeg: %v", err)
	}

	// A background sweeper that will happily soak any unused CPU.
	sweep, err := d.RequestAdmittance(&task.Task{
		Name: "sweeper",
		List: task.SingleLevel(ticks.FromMilliseconds(10), ticks.FromMilliseconds(1), "Sweep"),
		Body: task.Busy(),
	})
	if err != nil {
		log.Fatalf("admit sweeper: %v", err)
	}

	fmt.Println("grant set after admission:")
	for _, g := range d.Grants().All() {
		fmt.Printf("  %v\n", g)
	}

	d.Run(ticks.FromSeconds(1))

	for i, id := range []task.ID{mpeg, sweep} {
		st, _ := d.Stats(id)
		fmt.Printf("%-8s periods=%d misses=%d granted=%v used=%v overtime=%v\n",
			[]string{"mpeg", "sweeper"}[i], st.Periods, st.Misses, st.GrantedTicks, st.UsedTicks, st.OvertimeTicks)
	}
	ks := d.KernelStats()
	fmt.Printf("switches: %d voluntary, %d involuntary (%.2f%% of CPU); idle %v\n",
		ks.VolSwitches, ks.InvolSwitches, 100*ks.SwitchOverheadFraction(), ks.IdleTicks)
}
