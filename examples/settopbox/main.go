// Settopbox reproduces the paper's Table 4 / Figure 3 scenario: a
// modem, a 3D graphics engine, and an MPEG decoder sharing the
// MAP1000. The Resource Manager computes a grant set (the three tasks
// cannot all have their maxima), the EDF Scheduler delivers it, and
// the program prints the grant table, a Gantt chart of the first
// 100 ms, and application-level quality.
//
//	go run ./examples/settopbox
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
	rec := trace.New()
	d := core.New(core.Config{Observer: rec})

	modem := workload.NewModem()
	modemID, err := d.RequestAdmittance(modem.Task(false))
	if err != nil {
		log.Fatalf("admit modem: %v", err)
	}

	g3d := workload.NewGraphics3D(42)
	g3dID, err := d.RequestAdmittance(g3d.Task())
	if err != nil {
		log.Fatalf("admit 3d: %v", err)
	}

	mpeg := workload.NewMPEG()
	mpegID, err := d.RequestAdmittance(mpeg.Task())
	if err != nil {
		log.Fatalf("admit mpeg: %v", err)
	}

	fmt.Println("grant set (compare Table 4):")
	fmt.Printf("  %-6s %10s %10s %7s  %s\n", "task", "period", "cpu req", "rate", "function")
	gs := d.Grants()
	for _, row := range []struct {
		name string
		id   task.ID
	}{{"modem", modemID}, {"3d", g3dID}, {"mpeg", mpegID}} {
		g := gs.Of(row.id)
		fmt.Printf("  %-6s %10d %10d %7s  %s\n",
			row.name, g.Entry.Period, g.Entry.CPU, g.Entry.Rate(), g.Entry.Fn)
	}
	fmt.Printf("  total %.1f%% of CPU\n\n", 100*gs.TotalFrac().Float())

	d.Run(ticks.FromSeconds(2))

	fmt.Println("schedule, first 100 ms (compare Figure 3):")
	fmt.Println(rec.Gantt(0, 100*ticks.PerMillisecond, 110))

	mpeg.Flush()
	fmt.Println("application quality over 2 s:")
	fmt.Printf("  modem: %s\n", modem.Stats().QualityString())
	fmt.Printf("  3d:    %s\n", g3d.Stats().QualityString())
	fmt.Printf("  mpeg:  %s\n", mpeg.Stats().QualityString())

	if n := rec.MissCount(); n != 0 {
		fmt.Printf("DEADLINE MISSES: %d (should be zero)\n", n)
	} else {
		fmt.Println("deadline misses: 0 — every admitted grant was delivered")
	}
}
