package main

import (
	"fmt"
	"os"

	"repro/internal/baseline"
	"repro/internal/core"
	"repro/internal/extclock"
	"repro/internal/metrics"
	"repro/internal/sim"
	"repro/internal/task"
	"repro/internal/ticks"
	"repro/internal/trace"
	"repro/internal/workload"
)

func init() {
	experiments = append(experiments,
		experiment{"verify", "regression check: every reproduced band, pass/fail", expVerify},
	)
}

// expVerify re-runs the key scenarios and checks the reproduction
// bands recorded in EXPERIMENTS.md, exiting non-zero on any failure —
// the harness's self-test.
func expVerify() {
	failed := 0
	check := func(name string, ok bool, detail string) {
		mark := "ok  "
		if !ok {
			mark = "FAIL"
			failed++
		}
		fmt.Printf("  [%s] %-34s %s\n", mark, name, detail)
	}

	// 1. Switch-cost calibration (§6.1).
	{
		costs := sim.PaperSwitchCosts()
		rng := sim.NewRNG(2024)
		var vol, invol metrics.Summary
		for i := 0; i < 50_000; i++ {
			vol.Add(costs.Sample(sim.Voluntary, rng).MicrosecondsF())
			invol.Add(costs.Sample(sim.Involuntary, rng).MicrosecondsF())
		}
		okV := within(vol.Median(), 18.3, 0.03) && within(vol.Mean(), 20.7, 0.03)
		okI := within(invol.Median(), 28.2, 0.03) && within(invol.Mean(), 35.0, 0.03)
		check("switch-cost calibration", okV && okI,
			fmt.Sprintf("vol med/mean %.1f/%.1f, invol %.1f/%.1f",
				vol.Median(), vol.Mean(), invol.Median(), invol.Mean()))
	}

	// 2. Figure 5 staircase: 9/4/3/2/2 ms exactly, zero misses.
	{
		rec := trace.New()
		d := newDist(core.Config{SwitchCosts: zeroCosts(), InterruptReservePercent: 4, Observer: rec})
		_, _ = d.AddSporadicServer("ss", task.SingleLevel(2_700_000, 27_000, "SS"), true)
		ids := make([]task.ID, 5)
		for i := 0; i < 5; i++ {
			i := i
			d.At(ticks.Ticks(i)*20*ms, func() {
				ids[i], _ = d.RequestAdmittance(workload.BusyLoopTask(fmt.Sprintf("t%d", i+2)))
			})
		}
		d.Run(200 * ms)
		series := rec.AllocationSeries(ids[0])
		alloc := func(at ticks.Ticks) ticks.Ticks {
			var cpu ticks.Ticks = -1
			for _, p := range series {
				if p.Start <= at {
					cpu = p.CPU
				}
			}
			return cpu
		}
		stair := alloc(10*ms) == 9*ms && alloc(30*ms) == 4*ms &&
			alloc(50*ms) == 3*ms && alloc(70*ms) == 2*ms && alloc(150*ms) == 2*ms
		check("figure 5 staircase 9/4/3/2/2", stair && rec.MissCount() == 0,
			fmt.Sprintf("misses=%d", rec.MissCount()))
	}

	// 3. Zero misses on the Table 4 / Figure 3 workload.
	{
		rec := trace.New()
		d := newDist(core.Config{Observer: rec}) // stochastic costs on purpose
		_, _ = d.RequestAdmittance(workload.NewModem().Task(false))
		_, _ = d.RequestAdmittance(workload.NewGraphics3D(42).Task())
		_, _ = d.RequestAdmittance(workload.NewMPEG().Task())
		d.Run(5 * ticks.PerSecond)
		check("figure 3 zero misses", rec.MissCount() == 0,
			fmt.Sprintf("misses=%d over 5s", rec.MissCount()))
	}

	// 4. Baseline shapes (§3.4/3.5).
	{
		fsMPEG := workload.NewMPEG()
		k := sim.NewKernel(sim.Config{Costs: sim.ZeroSwitchCosts()})
		fs := baseline.NewFairShare(k, ms)
		fs.Add("mpeg", 900_000, 1, fsMPEG)
		for _, n := range []string{"w1", "w2", "w3"} {
			fs.Add(n, 10*ms, 1, task.PeriodicWork(3*ms))
		}
		fs.RunUntil(2 * ticks.PerSecond)
		fsMPEG.Flush()
		check("fair share loses I frames", fsMPEG.Stats().LostI > 0,
			fsMPEG.Stats().QualityString())

		k2 := sim.NewKernel(sim.Config{Costs: sim.ZeroSwitchCosts()})
		r := baseline.NewReserves(k2)
		_ = r.Reserve("v", 10*ms, 8*ms, task.PeriodicWork(2*ms))
		_ = r.Reserve("bg", 10*ms, 2*ms, task.Busy())
		r.RunUntil(ticks.PerSecond)
		check("reserves strand CPU", r.Utilization() < 0.5,
			fmt.Sprintf("utilization=%.2f", r.Utilization()))
	}

	// 5. Clock lock (§5.4).
	{
		ext := extclock.New(120, 0)
		pl, _ := extclock.NewPhaseLock(ext, 270_000, 269_500)
		d := newDist(core.Config{SwitchCosts: zeroCosts()})
		var id task.ID
		var maxErr ticks.Ticks
		periods := 0
		body := task.BodyFunc(func(ctx task.RunContext) task.RunResult {
			if ctx.NewPeriod {
				periods++
				if periods > 1 {
					if e := pl.PhaseErrorAt(ctx.PeriodStart); e > maxErr {
						maxErr = e
					}
				}
				_ = d.InsertIdleCycles(id, pl.Insertion(ctx.PeriodStart))
			}
			left := 2*ms - ctx.UsedThisPeriod
			if left <= 0 {
				return task.RunResult{Op: task.OpYield, Completed: true}
			}
			if left > ctx.Span {
				left = ctx.Span
			}
			return task.RunResult{Used: left, Op: task.OpYield, Completed: true}
		})
		id, _ = d.RequestAdmittance(&task.Task{
			Name: "display", List: task.SingleLevel(269_500, 2*ms, "R"), Body: body,
		})
		d.Run(5 * ticks.PerSecond)
		check("phase lock bounded", maxErr <= 600,
			fmt.Sprintf("max err %v ticks over %d periods", maxErr, periods))
	}

	// 6. Interrupt reserve knee (§5.2).
	{
		misses := func(serviceUs int64) int {
			rec := trace.New()
			d := newDist(core.Config{SwitchCosts: zeroCosts(), InterruptReservePercent: 4, Observer: rec})
			for i := 0; i < 4; i++ {
				_, _ = d.RequestAdmittance(&task.Task{
					Name: fmt.Sprintf("t%d", i),
					List: task.SingleLevel(10*ms, 24*ms/10, "T"),
					Body: task.PeriodicWork(24 * ms / 10),
				})
			}
			_ = d.AddInterruptLoad(ms, ticks.FromMicroseconds(serviceUs))
			d.Run(ticks.PerSecond)
			return rec.MissCount()
		}
		in, out := misses(40), misses(60)
		check("interrupt knee at the reserve", in == 0 && out > 0,
			fmt.Sprintf("4%% load: %d misses; 6%% load: %d", in, out))
	}

	// 7. Latency bound (§4.2) on the Table 4 workload.
	{
		rec := trace.New()
		d := newDist(core.Config{SwitchCosts: zeroCosts(), Observer: rec})
		_, _ = d.RequestAdmittance(workload.NewModem().Task(false))
		_, _ = d.RequestAdmittance(workload.NewGraphics3D(42).Task())
		_, _ = d.RequestAdmittance(workload.NewMPEG().Task())
		d.Run(5 * ticks.PerSecond)
		rep := trace.Analyze(rec.Export())
		ok := true
		for _, g := range d.Grants().All() {
			for _, tr := range rep.Tasks {
				if tr.ID == g.Task && tr.WorstLatency > 2*g.Entry.Period-2*g.Entry.CPU {
					ok = false
				}
			}
		}
		check("latency bound 2P-2C", ok, "Table 4 workload, 5s")
	}

	if failed > 0 {
		fmt.Printf("\n%d check(s) FAILED\n", failed)
		os.Exit(1)
	}
	fmt.Println("\nall reproduction bands hold")
}

func within(got, want, tol float64) bool {
	return got >= want*(1-tol) && got <= want*(1+tol)
}
