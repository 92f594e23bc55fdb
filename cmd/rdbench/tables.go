package main

import (
	"fmt"
	"io"

	"repro/internal/core"
	"repro/internal/policy"
	"repro/internal/sim"
	"repro/internal/task"
	"repro/internal/ticks"
	"repro/internal/trace"
	"repro/internal/workload"
)

const ms = ticks.PerMillisecond

func zeroCosts() *sim.SwitchCosts {
	c := sim.ZeroSwitchCosts()
	return &c
}

func printList(w io.Writer, rl task.ResourceList) {
	fmt.Fprintf(w, "  %10s %10s %7s  %s\n", "period", "cpu req", "rate", "function")
	for _, e := range rl {
		fmt.Fprintf(w, "  %10d %10d %7s  %s\n", e.Period, e.CPU, e.Rate(), e.Fn)
	}
}

func expTable2(w io.Writer) {
	fmt.Fprintln(w, "paper: 33.3%, 25.0%, 22.2%, 16.7% (FullDecompress .. Drop_2B_in_4)")
	fmt.Fprintln(w, "measured from workload.MPEGList():")
	printList(w, workload.MPEGList())
}

func expTable3(w io.Writer) {
	fmt.Fprintln(w, "paper: 80%, 40%, 20%, 10%, all Render3DFrame, period 2,700,000")
	fmt.Fprintln(w, "measured from workload.Graphics3DList():")
	printList(w, workload.Graphics3DList())
}

func expTable4(w io.Writer) {
	fmt.Fprintln(w, "paper: modem 10%, 3D 52%, MPEG 33% — three simultaneous grants")
	fmt.Fprintln(w, "measured grant set (invented 1/3 policy; 3D lands on its nearest")
	fmt.Fprintln(w, "Table 3 entry, 40%, since grants must map to real levels):")
	d := core.New(core.Config{SwitchCosts: zeroCosts()})
	if _, _, _, err := workload.Settop(d); err != nil {
		panic(err)
	}
	gs := d.Grants()
	for _, g := range gs.All() {
		t, _ := d.Manager().TaskByID(g.Task)
		fmt.Fprintf(w, "  %-6s %10d %10d %7s  %s\n",
			t.Name, g.Entry.Period, g.Entry.CPU, g.Entry.Rate(), g.Entry.Fn)
	}
	fmt.Fprintf(w, "  total: %.1f%% of CPU (paper total: 95%%)\n", 100*gs.TotalFrac().Float())
}

func expTable5(w io.Writer) {
	fmt.Fprintln(w, "paper: 7 policies over task sets {1,2} .. {1,2,3,4}")
	fmt.Fprintln(w, "measured from policy.Table5 lookups:")
	box := policy.NewBox()
	m := policy.Table5(box, [4]string{"task1", "task2", "task3", "task4"})
	sets := [][]policy.MemberID{
		{m[0], m[1]}, {m[0], m[2]}, {m[0], m[3]},
		{m[0], m[1], m[2]}, {m[0], m[1], m[3]}, {m[0], m[2], m[3]},
		{m[0], m[1], m[2], m[3]},
	}
	for _, s := range sets {
		fmt.Fprintf(w, "  %v\n", box.PolicyFor(s))
	}
	fmt.Fprintf(w, "  unmatched set -> %v\n", box.PolicyFor([]policy.MemberID{m[1], m[3]}))
}

func expTable6(w io.Writer) {
	fmt.Fprintln(w, "paper: nine entries, 90%..10% of a 270,000-tick period, all BusyLoop")
	fmt.Fprintln(w, "measured from workload.BusyLoopTask:")
	printList(w, workload.BusyLoopTask("thread2").List)
}

// recFor returns a Recorder pre-sized for a run of the given horizon,
// so long experiments append into reserved storage instead of
// re-growing the event slices mid-run.
func recFor(horizon ticks.Ticks) *trace.Recorder {
	rec := trace.New()
	rec.Reserve(trace.HintForHorizon(horizon))
	return rec
}

func expFig3(w io.Writer) {
	fmt.Fprintln(w, "paper: EDF schedule preempting the MPEG and 3D tasks; modem never preempted")
	rec := recFor(200 * ms)
	d := core.New(core.Config{SwitchCosts: zeroCosts(), Observer: rec})
	if _, _, _, err := workload.Settop(d); err != nil {
		panic(err)
	}
	d.Run(200 * ms)
	fmt.Fprintln(w, "measured schedule, first 200 ms:")
	fmt.Fprintln(w, rec.Gantt(0, 200*ms, 110))
	fmt.Fprintf(w, "deadline misses: %d (paper guarantee: 0)\n", rec.MissCount())
}
