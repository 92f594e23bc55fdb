// Multiresource demonstrates managing the MAP1000's non-CPU
// resources: the exclusive Fixed Function Unit and Data Streamer
// bandwidth (Table 1's omitted fields; §7's future-work item). Two
// renderers contend for the FFU video scaler while three streaming
// tasks share a 400 MB/s Data Streamer; grant control sheds levels on
// whichever dimension binds.
//
//	go run ./examples/multiresource
package main

import (
	"fmt"
	"log"

	"repro/internal/core"
	"repro/internal/policy"
	"repro/internal/rm"
	"repro/internal/task"
	"repro/internal/ticks"
)

const ms = ticks.PerMillisecond

func renderList() task.ResourceList {
	// Top levels use the FFU scaler; lower levels render in software.
	return task.ResourceList{
		{Period: 10 * ms, CPU: 3 * ms, Fn: "RenderScaled", NeedsFFU: true, StreamerMBps: 120},
		{Period: 10 * ms, CPU: 2 * ms, Fn: "RenderSoft", StreamerMBps: 80},
		{Period: 10 * ms, CPU: 1 * ms, Fn: "RenderSoft", StreamerMBps: 40},
	}
}

func streamList(hi, lo int64) task.ResourceList {
	return task.ResourceList{
		{Period: 10 * ms, CPU: 1 * ms, Fn: "StreamHQ", StreamerMBps: hi},
		{Period: 10 * ms, CPU: ms / 2, Fn: "StreamLQ", StreamerMBps: lo},
	}
}

func main() {
	// The user prefers the main view; the Policy Box names it the
	// exclusive-resource holder.
	box := policy.NewBox()
	mainView := box.Register("main-view")
	pip := box.Register("pip-view")
	capture := box.Register("capture")
	play1 := box.Register("playback-1")
	play2 := box.Register("playback-2")
	if err := box.SetDefault(policy.Policy{
		Shares: policy.Ranking{
			mainView: 30, pip: 20, capture: 15, play1: 15, play2: 15,
		},
		Exclusive: mainView,
	}); err != nil {
		log.Fatal(err)
	}

	d := core.New(core.Config{
		PolicyBox: box,
		Streamer:  rm.Capacity{StreamerMBps: 400},
	})

	names := map[task.ID]string{}
	admit := func(name string, list task.ResourceList) task.ID {
		id, err := d.RequestAdmittance(&task.Task{Name: name, List: list, Body: task.YieldAll()})
		if err != nil {
			log.Fatalf("admit %s: %v", name, err)
		}
		names[id] = name
		return id
	}

	admit("main-view", renderList())
	admit("pip-view", renderList())
	admit("capture", streamList(150, 60))
	admit("playback-1", streamList(150, 60))
	admit("playback-2", streamList(150, 60))

	fmt.Println("grant set (400 MB/s Streamer, one FFU):")
	fmt.Printf("  %-12s %8s %10s %6s %10s\n", "task", "cpu", "rate", "ffu", "streamer")
	gs := d.Grants()
	var totalMBps int64
	ffuHolders := 0
	for _, g := range gs.All() {
		ffu := ""
		if g.Entry.NeedsFFU {
			ffu = "yes"
			ffuHolders++
		}
		totalMBps += g.Entry.StreamerMBps
		fmt.Printf("  %-12s %8d %10s %6s %7dMBps\n",
			names[g.Task], g.Entry.CPU, g.Entry.Rate(), ffu, g.Entry.StreamerMBps)
	}
	fmt.Printf("  totals: %.1f%% CPU, %d MB/s of 400, %d FFU holder(s)\n\n",
		100*gs.TotalFrac().Float(), totalMBps, ffuHolders)

	d.Run(ticks.PerSecond)
	misses := int64(0)
	for id := range names {
		st, _ := d.Stats(id)
		misses += st.Misses
	}
	fmt.Printf("after 1s simulated: %d deadline misses across all five tasks\n", misses)
	fmt.Println("the policy-designated main view holds the FFU; streaming levels")
	fmt.Println("shed until the Data Streamer fits — policy decides, not timing.")
}
