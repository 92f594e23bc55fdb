package main

import (
	"fmt"
	"io"

	"repro/internal/core"
	"repro/internal/task"
	"repro/internal/ticks"
	"repro/internal/trace"
	"repro/internal/workload"
)

// expSporadicLatency validates §5.1's closing sentence: "The
// performance of a sporadic task is a function of the amount of CPU
// time allocated to the Sporadic Server (which can be modified
// through the Policy Box) and the number of sporadic tasks." A 5ms
// burst of sporadic work is injected every 100ms; its completion
// latency falls as the server's grant grows and rises with queue
// length.
func expSporadicLatency(w io.Writer) {
	fmt.Fprintln(w, "5ms sporadic bursts every 100ms; periodic load fills the rest")
	fmt.Fprintf(w, "  %12s %10s %14s %14s\n", "server grant", "sporadics", "mean lat (ms)", "max lat (ms)")
	for _, cfg := range []struct {
		grantPct  int
		nSporadic int
	}{
		{2, 1}, {5, 1}, {10, 1}, {18, 1}, {10, 2}, {10, 4},
	} {
		d := core.New(core.Config{Seed: 3, SwitchCosts: zeroCosts()})
		_, err := d.AddSporadicServer("ss",
			task.SingleLevel(10*ms, 10*ms*ticks.Ticks(cfg.grantPct)/100, "SS"), false)
		if err != nil {
			fmt.Fprintln(w, "  ", err)
			return
		}
		// Two short-period overtime hogs outrank the server on the
		// OvertimeRequested queue (earlier deadlines), so sporadic
		// progress is pinned to the server's *grant* — the §5.1
		// performance model in isolation.
		for _, n := range []string{"bg1", "bg2"} {
			_, _ = d.RequestAdmittance(&task.Task{
				Name: n, List: task.SingleLevel(5*ms, 2*ms, "BG"), Body: task.Busy(),
			})
		}

		// Each burst: arrival time recorded, completion measured.
		var latencies []ticks.Ticks
		type burst struct {
			arrived ticks.Ticks
			left    ticks.Ticks
		}
		queues := make([][]burst, cfg.nSporadic)
		for i := 0; i < cfg.nSporadic; i++ {
			d.AddSporadic(fmt.Sprintf("burst%d", i), task.BodyFunc(func(ctx task.RunContext) task.RunResult {
				q := queues[i]
				if len(q) == 0 {
					return task.RunResult{Op: task.OpYield}
				}
				b := &q[0]
				use := b.left
				if use > ctx.Span {
					use = ctx.Span
				}
				b.left -= use
				if b.left == 0 {
					latencies = append(latencies, ctx.Now+use-b.arrived)
					queues[i] = q[1:]
				}
				return task.RunResult{Used: use, Op: task.OpRanOut}
			}))
		}
		for at := 100 * ms; at < 2*ticks.PerSecond; at += 100 * ms {
			d.At(at, func() {
				for i := range queues {
					queues[i] = append(queues[i], burst{arrived: at, left: 5 * ms})
				}
			})
		}
		d.Run(2*ticks.PerSecond + 500*ms)

		var sum, max ticks.Ticks
		for _, l := range latencies {
			sum += l
			if l > max {
				max = l
			}
		}
		mean := 0.0
		if len(latencies) > 0 {
			mean = float64(sum) / float64(len(latencies)) / float64(ticks.PerMillisecond)
		}
		fmt.Fprintf(w, "  %11d%% %10d %14.1f %14.1f\n",
			cfg.grantPct, cfg.nSporadic, mean, max.MillisecondsF())
	}
	fmt.Fprintln(w, "latency falls with the server's grant and rises with queue length —")
	fmt.Fprintln(w, "§5.1's stated performance model, measured")
}

// expInterrupts measures the §5.2 trade-off directly: a 96%-granted
// task set under a 4% reserve, swept across interrupt loads. Inside
// the reserve: zero misses. Beyond it: the conflict the paper warns
// about.
func expInterrupts(w io.Writer) {
	fmt.Fprintln(w, "four 24% tasks (96% granted) under a 4% interrupt reserve, 2s;")
	fmt.Fprintln(w, "interrupts every 1ms with growing service times")
	fmt.Fprintf(w, "  %14s %12s %8s\n", "load (%)", "interrupts", "misses")
	for _, serviceUs := range []int64{10, 20, 30, 40, 50, 60, 80} {
		rec := trace.New()
		// Zero switch costs isolate the interrupt dimension; with the
		// stochastic cost model the reserve must cover switch
		// overhead too (~0.5-1%), shifting the knee left.
		d := core.New(core.Config{
			Seed:                    3,
			SwitchCosts:             zeroCosts(),
			InterruptReservePercent: 4,
			Observer:                rec,
		})
		for i := 0; i < 4; i++ {
			_, _ = d.RequestAdmittance(&task.Task{
				Name: fmt.Sprintf("t%d", i),
				List: task.SingleLevel(10*ms, 24*ms/10, "T"),
				Body: task.PeriodicWork(24 * ms / 10),
			})
		}
		if err := d.AddInterruptLoad(ms, ticks.FromMicroseconds(serviceUs)); err != nil {
			fmt.Fprintln(w, "  ", err)
			return
		}
		d.Run(2 * ticks.PerSecond)
		st := d.KernelStats()
		fmt.Fprintf(w, "  %13.1f%% %12d %8d\n",
			100*st.InterruptLoadFraction(), st.Interrupts, rec.MissCount())
	}
	fmt.Fprintln(w, "misses appear once the load crosses the 4% reserve — the paper's")
	fmt.Fprintln(w, "'large enough that interrupts do not conflict with deadlines'")
}

// expPeriods contrasts harmonic period sets (Rialto's restriction,
// which minimises context switches) with arbitrary ones (which the RD
// supports: "we support any period length in range"). Co-prime
// periods cost proportionally more switches but zero misses.
func expPeriods(w io.Writer) {
	fmt.Fprintln(w, "paper: Rialto forces periods to be even multiples of each other to")
	fmt.Fprintln(w, "reduce switches; the RD takes 'exactly those context switch")
	fmt.Fprintln(w, "interrupts required' for ANY period set")
	run := func(name string, periodsMs []int64) {
		rec := trace.New()
		d := core.New(core.Config{Seed: 11, Observer: rec})
		for i, p := range periodsMs {
			period := ticks.FromMilliseconds(p)
			cpu := period / 5 // 20% each
			_, err := d.RequestAdmittance(&task.Task{
				Name: fmt.Sprintf("%s-%d", name, i),
				List: task.SingleLevel(period, cpu, "T"),
				Body: task.PeriodicWork(cpu),
			})
			if err != nil {
				fmt.Fprintf(w, "  admit failed: %v\n", err)
				return
			}
		}
		d.Run(10 * ticks.PerSecond)
		st := d.KernelStats()
		fmt.Fprintf(w, "  %-22s periods=%v switches=%4d overhead=%.2f%% misses=%d\n",
			name, periodsMs, st.VolSwitches+st.InvolSwitches,
			100*st.SwitchOverheadFraction(), rec.MissCount())
	}
	run("harmonic", []int64{10, 20, 40, 80})
	run("arbitrary", []int64{10, 23, 41, 83})
	run("co-prime-tight", []int64{7, 11, 13, 17})
}

// expAblateOverride sweeps the §4.2 small-overlap override window.
// The paper sets it as "a function of the context-switch time"; the
// sweep shows why: too small buys nothing, too large distorts EDF by
// letting long grants run past preemption points.
func expAblateOverride(w io.Writer) {
	fmt.Fprintln(w, "workload: 10ms/5ms short task + 45ms/15.05ms long task, 10s;")
	fmt.Fprintln(w, "the long grant overlaps a preemption point by ~185us each cycle")
	fmt.Fprintf(w, "  %12s %10s %10s %12s %8s\n", "window (us)", "vol", "invol", "switch CPU%", "misses")
	for _, us := range []int64{0, 50, 100, 200, 500, 1000, 5000} {
		rec := trace.New()
		d := core.New(core.Config{
			Seed:           3,
			OverrideWindow: ticks.FromMicroseconds(us),
			Observer:       rec,
		})
		longCPU := 15*ms + 50*ticks.PerMicrosecond
		_, _ = d.RequestAdmittance(&task.Task{
			Name: "short", List: task.SingleLevel(10*ms, 5*ms, "S"), Body: task.PeriodicWork(5 * ms),
		})
		_, _ = d.RequestAdmittance(&task.Task{
			Name: "long", List: task.SingleLevel(45*ms, longCPU, "L"), Body: task.PeriodicWork(longCPU),
		})
		d.Run(10 * ticks.PerSecond)
		st := d.KernelStats()
		fmt.Fprintf(w, "  %12d %10d %10d %11.2f%% %8d\n",
			us, st.VolSwitches, st.InvolSwitches,
			100*st.SwitchOverheadFraction(), rec.MissCount())
	}
	fmt.Fprintln(w, "(0 disables the sweep value and selects the 70us default)")
}

// expAblateGrace performs the study the paper defers: sweeping the
// §5.6 grace period. Longer grace converts more involuntary switches
// into voluntary yields, but every grace tick is stolen from the
// preempting task ("the other task is still postponed"), so latency
// for the short-period task grows.
func expAblateGrace(w io.Writer) {
	fmt.Fprintln(w, "workload: cooperative 45ms/15ms task (checks every 150us) preempted")
	fmt.Fprintln(w, "by a 10ms/3ms task, 10s per point")
	fmt.Fprintf(w, "  %12s %10s %10s %12s %8s\n", "grace (us)", "invol", "overruns", "switch CPU%", "misses")
	for _, us := range []int64{25, 50, 100, 200, 400, 800} {
		rec := trace.New()
		d := core.New(core.Config{
			Seed:        3,
			GracePeriod: ticks.FromMicroseconds(us),
			Observer:    rec,
		})
		coop, _ := d.RequestAdmittance(&task.Task{
			Name:                 "coop",
			List:                 task.SingleLevel(45*ms, 15*ms, "C"),
			Body:                 task.CooperativeWork(15*ms, 150*ticks.PerMicrosecond),
			ControlledPreemption: true,
		})
		_, _ = d.RequestAdmittance(&task.Task{
			Name: "short", List: task.SingleLevel(10*ms, 3*ms, "S"), Body: task.PeriodicWork(3 * ms),
		})
		d.Run(10 * ticks.PerSecond)
		st := d.KernelStats()
		ts, _ := d.Stats(coop)
		fmt.Fprintf(w, "  %12d %10d %10d %11.2f%% %8d\n",
			us, st.InvolSwitches, ts.Exceptions,
			100*st.SwitchOverheadFraction(), rec.MissCount())
	}
	fmt.Fprintln(w, "the knee sits just above the task's check interval: once the grace")
	fmt.Fprintln(w, "period covers one safe-point poll, overruns vanish — the paper's")
	fmt.Fprintln(w, "'couple hundred uSec' matches a ~150us polling loop")
}

// expAblateReserve sweeps the §5.2 interrupt reserve: a bigger
// reserve wastes resources, a smaller one leaves less headroom — the
// trade-off the paper states.
func expAblateReserve(w io.Writer) {
	fmt.Fprintln(w, "Figure 5 workload (5 Table-6 threads + Sporadic Server), 200ms")
	fmt.Fprintf(w, "  %12s %14s %14s %8s\n", "reserve (%)", "thread2 (ms)", "granted (%)", "misses")
	for _, pct := range []int64{0, 2, 4, 8, 16} {
		rec := trace.New()
		d := core.New(core.Config{
			Seed:                    3,
			InterruptReservePercent: pct,
			Observer:                rec,
		})
		_, ids, err := workload.Figure5(d)
		if err != nil {
			panic(err)
		}
		d.Run(200 * ms)
		series := rec.AllocationSeries(ids[0])
		var final ticks.Ticks
		if len(series) > 0 {
			final = series[len(series)-1].CPU
		}
		gs := d.Grants()
		fmt.Fprintf(w, "  %12d %14.1f %13.1f%% %8d\n",
			pct, final.MillisecondsF(), 100*gs.TotalFrac().Float(), rec.MissCount())
	}
}

// expAblateSlice sweeps the Sporadic Server's assignment quantum
// ("currently 10 ms", §5.1): bigger slices give sporadic tasks longer
// uninterrupted runs but coarser round-robin sharing.
func expAblateSlice(w io.Writer) {
	fmt.Fprintln(w, "two sporadic hogs behind a 10ms/2ms Sporadic Server, 1s per point")
	fmt.Fprintf(w, "  %12s %12s %12s %14s\n", "slice (ms)", "hog-a (ms)", "hog-b (ms)", "alternations")
	for _, sliceMs := range []int64{1, 5, 10, 20, 50} {
		d := core.New(core.Config{
			Seed:          3,
			SporadicSlice: ticks.FromMilliseconds(sliceMs),
		})
		_, _ = d.AddSporadicServer("ss", task.SingleLevel(10*ms, 2*ms, "SS"), true)
		var order []byte
		mk := func(tag byte) task.Body {
			return task.BodyFunc(func(ctx task.RunContext) task.RunResult {
				if len(order) == 0 || order[len(order)-1] != tag {
					order = append(order, tag)
				}
				return task.RunResult{Used: ctx.Span, Op: task.OpRanOut}
			})
		}
		a := d.AddSporadic("hog-a", mk('a'))
		b := d.AddSporadic("hog-b", mk('b'))
		d.Run(ticks.PerSecond)
		sa, _ := d.Scheduler().SporadicStatsOf(a)
		sb, _ := d.Scheduler().SporadicStatsOf(b)
		fmt.Fprintf(w, "  %12d %12.1f %12.1f %14d\n",
			sliceMs, sa.UsedTicks.MillisecondsF(), sb.UsedTicks.MillisecondsF(), len(order))
	}
	fmt.Fprintln(w, "throughput is slice-independent; alternation frequency is the knob")
}
