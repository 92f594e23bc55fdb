// Overload reproduces the paper's Table 6 / Figure 5 experiment: a
// Sporadic Server (1% per 100 ms) plus five BusyLoop threads, each
// with nine resource-list entries from 90% down to 10% of a 10 ms
// period, started 20 ms apart, under a 4% interrupt reserve. With no
// stored policies, the Policy Box invents even splits, and the first
// thread's allocation steps 9 -> 4 -> 3 -> 2 -> 2 ms as the others
// arrive — without a single missed deadline.
//
//	go run ./examples/overload
package main

import (
	"fmt"
	"log"

	"repro/internal/core"
	"repro/internal/task"
	"repro/internal/ticks"
	"repro/internal/trace"
	"repro/internal/workload"
)

func main() {
	const ms = ticks.PerMillisecond
	rec := trace.New()
	d := core.New(core.Config{
		InterruptReservePercent: 4,
		Observer:                rec,
	})

	ssID, ids, err := workload.Figure5(d)
	if err != nil {
		log.Fatalf("admit sporadic server: %v", err)
	}

	d.Run(200 * ms)
	for i, id := range ids {
		if id == task.NoID {
			log.Fatalf("thread%d denied", i+2)
		}
	}

	fmt.Println("per-period CPU allocations as threads arrive (compare Figure 5):")
	order := append([]task.ID{ssID}, ids...)
	fmt.Print(rec.AllocationTable(order, 150*ms))

	fmt.Println("\nschedule around the fifth admission (80-120 ms):")
	fmt.Println(rec.Gantt(80*ms, 120*ms, 100))

	fmt.Println("thread 2 staircase (allocation at its period starts):")
	for _, p := range rec.AllocationSeries(ids[0]) {
		if p.Start > 110*ms {
			break
		}
		fmt.Printf("  t=%5.1fms  grant=%4.1fms (level %d)\n",
			p.Start.MillisecondsF(), p.CPU.MillisecondsF(), p.Level)
	}

	if n := rec.MissCount(); n != 0 {
		fmt.Printf("\nDEADLINE MISSES: %d (should be zero)\n", n)
	} else {
		fmt.Println("\ndeadline misses: 0 — guarantees held through every admission")
	}
}
