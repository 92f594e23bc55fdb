package main

import (
	"fmt"
	"io"

	"repro/internal/baseline"
	"repro/internal/core"
	"repro/internal/extclock"
	"repro/internal/rm"
	"repro/internal/sim"
	"repro/internal/streamer"
	"repro/internal/sweep"
	"repro/internal/task"
	"repro/internal/ticks"
	"repro/internal/trace"
	"repro/internal/workload"
)

// expBaselines regenerates the §3.4/§3.5 comparison: the same MPEG
// decoder and background load under fair-share scheduling (SMART-like
// overload behaviour), capacity reserves (CPR-like worst-case
// reservation), and the Resource Distributor.
func expBaselines(w io.Writer) {
	horizon := 2 * ticks.PerSecond

	fmt.Fprintln(w, "paper claims: fair share misses real-time deadlines in overload;")
	fmt.Fprintln(w, "reserves strand worst-case reservations; the RD sheds by policy")
	fmt.Fprintln(w)

	// MPEG quality in 120% overload: the sweep's baseline-media cell.
	fmt.Fprintln(w, "MPEG quality over 2s at 120% offered load:")
	cells(w, sweep.Matrix{
		Scenarios:  []string{"baseline-media"},
		CostModels: []string{"zero"},
		Policies:   []string{sweep.PolicyInvent, sweep.PolicyBaselineFairShare},
		Seeds:      []uint64{1},
		Horizon:    horizon,
	})
	fmt.Fprintln(w)

	// --- utilization with a variable-demand task ---
	k2 := sim.NewKernel(sim.Config{Costs: sim.ZeroSwitchCosts()})
	r := baseline.NewReserves(k2)
	_ = r.Reserve("variable", 10*ms, 8*ms, task.PeriodicWork(2*ms))
	_ = r.Reserve("bg", 10*ms, 2*ms, task.Busy())
	r.RunUntil(ticks.PerSecond)

	d2 := core.New(core.Config{SwitchCosts: zeroCosts()})
	_, _ = d2.RequestAdmittance(&task.Task{
		Name: "variable", List: task.SingleLevel(10*ms, 8*ms, "V"), Body: task.PeriodicWork(2 * ms),
	})
	_, _ = d2.RequestAdmittance(&task.Task{
		Name: "bg", List: task.SingleLevel(10*ms, 2*ms, "BG"), Body: task.Busy(),
	})
	d2.Run(ticks.PerSecond)

	fmt.Fprintln(w, "CPU utilization with a worst-case-8ms task that uses 2ms,")
	fmt.Fprintln(w, "plus a background task that wants everything:")
	fmt.Fprintf(w, "  reserves:    %4.1f%% (unused reservation stranded)\n", 100*r.Utilization())
	fmt.Fprintf(w, "  distributor: %4.1f%% (unused grant flows to overtime)\n",
		100*d2.KernelStats().Utilization())
	fmt.Fprintln(w)

	// --- Rialto-style constraints: refusals by accident of timing ---
	k3 := sim.NewKernel(sim.Config{Costs: sim.ZeroSwitchCosts()})
	ri := baseline.NewRialto(k3)
	ri.AddTask("hog", 10*ms, 4*ms)
	ri.AddTask("rival", 900_000, 0)
	ri.AddTask("mpeg", 900_000, 0)
	rng := sim.NewRNG(5)
	gop := []workload.FrameType(workload.DefaultGOP)
	frameBody := task.BodyFunc(func(ctx task.RunContext) task.RunResult {
		return task.RunResult{Used: ctx.Span, Op: task.OpRanOut}
	})
	var refusedI, refused, accepted, frame int
	var schedule func()
	schedule = func() {
		est := ticks.Ticks(100_000 + rng.Intn(400_000))
		_ = ri.BeginConstraint("rival", k3.Now()+900_000, est, frameBody)
		ftype := gop[frame%len(gop)]
		frame++
		if ri.BeginConstraint("mpeg", k3.Now()+900_000, workload.MPEGFrameCost, frameBody) {
			accepted++
		} else {
			refused++
			if ftype == workload.IFrame {
				refusedI++
			}
		}
		if k3.Now()+900_000 < horizon {
			k3.At(k3.Now()+900_000, schedule)
		}
	}
	k3.At(0, schedule)
	ri.RunUntil(horizon)
	fmt.Fprintln(w, "Rialto-style per-frame constraints under a varying rival load:")
	fmt.Fprintf(w, "  mpeg frames: %d accepted, %d refused — %d refusals hit I frames\n",
		accepted, refused, refusedI)
	fmt.Fprintln(w, "  (the RD's level-based shedding drops only B frames, by policy)")
}

// expStreamer demonstrates the full CPU+bandwidth grant pipeline: a
// streaming task's DMA channel runs at its granted Data Streamer
// rate; when overload sheds its level, the channel re-rates and
// transfer latency stretches accordingly — §7's "manage bandwidth as
// a resource", measured.
func expStreamer(w io.Writer) {
	fmt.Fprintln(w, "a 100KB transfer every 10ms through a channel rated at the task's")
	fmt.Fprintln(w, "granted StreamerMBps; a CPU hog arrives at t=500ms and sheds it")
	d := core.New(core.Config{SwitchCosts: zeroCosts()})
	e := streamer.New(d.Kernel(), 400)
	list := task.ResourceList{
		{Period: 270_000, CPU: 81_000, Fn: "StreamHQ", StreamerMBps: 200},
		{Period: 270_000, CPU: 27_000, Fn: "StreamLQ", StreamerMBps: 50},
	}
	var ch *streamer.Channel
	wholeGrant := task.YieldAll()
	id, _ := d.RequestAdmittance(&task.Task{
		Name: "pipeline",
		List: list,
		Body: task.BodyFunc(func(ctx task.RunContext) task.RunResult {
			if (ctx.NewPeriod || ctx.GrantChanged()) && ch != nil {
				if want := list[ctx.Level].StreamerMBps; ch.Rate() != want {
					_ = ch.SetRate(want)
				}
			}
			return wholeGrant.Run(ctx)
		}),
	})
	ch, _ = e.Open("pipeline", 200)
	type sample struct {
		at  ticks.Ticks
		lat ticks.Ticks
	}
	var samples []sample
	var pump func()
	pump = func() {
		start := d.Now()
		_ = ch.Submit(100_000, func() {
			samples = append(samples, sample{at: start, lat: d.Now() - start})
		})
		if d.Now() < 900*ms {
			d.Kernel().After(10*ms, pump)
		}
	}
	d.Kernel().At(0, pump)
	d.At(500*ms, func() {
		_, _ = d.RequestAdmittance(&task.Task{
			Name: "hog", List: task.SingleLevel(270_000, 216_000, "H"), Body: task.Busy(),
		})
	})
	d.Run(ticks.PerSecond)

	var before, after ticks.Ticks
	var nb, na int
	for _, s := range samples {
		if s.at < 450*ms {
			before += s.lat
			nb++
		} else if s.at > 550*ms {
			after += s.lat
			na++
		}
	}
	fmt.Fprintf(w, "  transfer latency before shed: %.2fms (at %d MB/s)\n",
		float64(before)/float64(nb)/float64(ms), 200)
	fmt.Fprintf(w, "  transfer latency after shed:  %.2fms (at %d MB/s)\n",
		float64(after)/float64(na)/float64(ms), 50)
	st, _ := d.Stats(id)
	fmt.Fprintf(w, "  pipeline level now %s; deadline misses: %d\n",
		d.Grants().Of(id).Entry.Fn, st.Misses)
}

// expLatency measures worst-case completion latency for the Table 4
// workload against the §4.2 bound: "the maximum guaranteed latency
// for a task is twice its period minus twice its CPU requirement."
func expLatency(w io.Writer) {
	fmt.Fprintln(w, "paper: max latency = 2*period - 2*CPU (grant at the start of one")
	fmt.Fprintln(w, "period, then at the end of the next); Table 4 workload, 10s")
	rec := recFor(10 * ticks.PerSecond)
	d := core.New(core.Config{SwitchCosts: zeroCosts(), Observer: rec})
	if _, _, _, err := workload.Settop(d); err != nil {
		panic(err)
	}
	d.Run(10 * ticks.PerSecond)
	rep := trace.Analyze(rec.Export())
	grantByName := map[string]rm.Grant{}
	for _, g := range d.Grants().All() {
		grantByName[rec.NameOf(g.Task)] = g
	}
	fmt.Fprintf(w, "  %-8s %12s %12s %8s\n", "task", "worst (ms)", "bound (ms)", "within")
	for _, tr := range rep.Tasks {
		g, ok := grantByName[tr.Name]
		if !ok {
			continue
		}
		bound := 2*g.Entry.Period - 2*g.Entry.CPU
		within := "yes"
		if tr.WorstLatency > bound {
			within = "NO"
		}
		fmt.Fprintf(w, "  %-8s %12.2f %12.2f %8s\n",
			tr.Name, tr.WorstLatency.MillisecondsF(), bound.MillisecondsF(), within)
	}
}

// expNotify regenerates §3.5's critique of failure-notification
// systems: the third-party round trip arrives after deadlines are
// already missed, and the shed target is whoever asked last.
func expNotify(w io.Writer) {
	fmt.Fprintln(w, "scenario: two resident 40% tasks; a third 40% task arrives at")
	fmt.Fprintln(w, "t=100ms. Notification system: 30ms third-party round trip.")
	k := sim.NewKernel(sim.Config{Costs: sim.ZeroSwitchCosts()})
	nf := baseline.NewNotifier(k, 30*ms)
	menu := []ticks.Ticks{4 * ms, 1 * ms}
	nf.Add("a", 10*ms, menu)
	nf.Add("b", 10*ms, menu)
	k.At(100*ms, func() { nf.Add("c", 10*ms, menu) })
	nf.RunUntil(ticks.PerSecond)
	var missed int64
	for _, n := range []string{"a", "b", "c"} {
		st, _ := nf.Stats(n)
		missed += st.MissedPeriods
		fmt.Fprintf(w, "  notify %-2s: %3d periods, %2d missed, used %v\n",
			n, st.Periods, st.MissedPeriods, st.UsedTicks)
	}

	d := core.New(core.Config{SwitchCosts: zeroCosts()})
	list := task.ResourceList{
		{Period: 10 * ms, CPU: 4 * ms, Fn: "Hi"},
		{Period: 10 * ms, CPU: 1 * ms, Fn: "Lo"},
	}
	ids := map[string]task.ID{}
	for _, n := range []string{"a", "b"} {
		ids[n], _ = d.RequestAdmittance(&task.Task{Name: n, List: list, Body: task.YieldAll()})
	}
	d.At(100*ms, func() {
		ids["c"], _ = d.RequestAdmittance(&task.Task{Name: "c", List: list, Body: task.YieldAll()})
	})
	d.Run(ticks.PerSecond)
	var rdMissed int64
	for _, n := range []string{"a", "b", "c"} {
		st, _ := d.Stats(ids[n])
		rdMissed += st.Misses
		fmt.Fprintf(w, "  RD     %-2s: %3d periods, %2d missed, used %v\n",
			n, st.Periods, st.Misses, st.UsedTicks)
	}
	fmt.Fprintf(w, "deadline misses: notification system %d, Resource Distributor %d\n",
		missed, rdMissed)
}

// expClock regenerates the §5.4 experiment: a display task whose
// period is defined by an external crystal drifting against the
// scheduling clock, with and without InsertIdleCycles compensation.
func expClock(w io.Writer) {
	const drift = 120.0 // ppm
	horizon := 10 * ticks.PerSecond
	extPeriod := ticks.Ticks(270_000)
	nominal := ticks.Ticks(269_500)

	fmt.Fprintf(w, "external clock drifts +%.0f ppm; task tracks 100Hz boundaries\n", drift)
	fmt.Fprintln(w, "paper: uncompensated clocks slip a full frame over time; the")
	fmt.Fprintln(w, "InsertIdleCycles interface postpones periods to stay in phase")

	run := func(compensate bool) (maxErr ticks.Ticks, periods int) {
		pl, err := extclock.NewPhaseLock(extclock.New(drift, 0), extPeriod, nominal)
		if err != nil {
			panic(err)
		}
		var insert func(task.RunContext) ticks.Ticks
		if compensate {
			insert = func(ctx task.RunContext) ticks.Ticks { return pl.Insertion(ctx.PeriodStart) }
		}
		d := core.New(core.Config{SwitchCosts: zeroCosts()})
		display, err := workload.PhaseLockedDisplay(d, pl, nominal, 1, insert)
		if err != nil {
			panic(err)
		}
		d.Run(horizon)
		return display.MaxPhaseError, display.Periods
	}

	rawErr, rawPeriods := run(false)
	lockErr, lockPeriods := run(true)
	fmt.Fprintf(w, "  uncompensated: max phase error %6.1f us over %d periods\n",
		rawErr.MicrosecondsF(), rawPeriods)
	fmt.Fprintf(w, "  compensated:   max phase error %6.1f us over %d periods\n",
		lockErr.MicrosecondsF(), lockPeriods)
}
