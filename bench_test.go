// Benchmarks regenerating the paper's evaluation artifacts, one per
// table and figure (see DESIGN.md §3 for the index). Run with:
//
//	go test -bench=. -benchmem
package repro_test

import (
	"fmt"
	"testing"

	"repro/internal/baseline"
	"repro/internal/core"
	"repro/internal/extclock"
	"repro/internal/policy"
	"repro/internal/rm"
	"repro/internal/sched"
	"repro/internal/sim"
	"repro/internal/task"
	"repro/internal/ticks"
	"repro/internal/workload"
)

const ms = ticks.PerMillisecond

func zeroCosts() *sim.SwitchCosts {
	c := sim.ZeroSwitchCosts()
	return &c
}

// --- Table 2: one simulated second of MPEG decode at full quality ---

func BenchmarkTable2MPEGDecodeSecond(b *testing.B) {
	for i := 0; i < b.N; i++ {
		m := workload.NewMPEG()
		d := core.New(core.Config{SwitchCosts: zeroCosts()})
		if _, err := d.RequestAdmittance(m.Task()); err != nil {
			b.Fatal(err)
		}
		d.Run(ticks.PerSecond)
		m.Flush()
		if st := m.Stats(); st.UnplannedLoss != 0 {
			b.Fatalf("losses at full quality: %s", st.QualityString())
		}
	}
}

// --- Table 3: one simulated second of 3D rendering ---

func BenchmarkTable3GraphicsSecond(b *testing.B) {
	for i := 0; i < b.N; i++ {
		g := workload.NewGraphics3D(uint64(i + 1))
		d := core.New(core.Config{SwitchCosts: zeroCosts()})
		if _, err := d.RequestAdmittance(g.Task()); err != nil {
			b.Fatal(err)
		}
		d.Run(ticks.PerSecond)
		if g.Stats().Frames == 0 {
			b.Fatal("no frames rendered")
		}
	}
}

// --- Table 4: computing the modem+3D+MPEG grant set ---

func BenchmarkTable4GrantSet(b *testing.B) {
	for i := 0; i < b.N; i++ {
		m := rm.New(rm.Config{})
		if _, err := m.RequestAdmittance(workload.NewModem().Task(false)); err != nil {
			b.Fatal(err)
		}
		if _, err := m.RequestAdmittance(workload.NewGraphics3D(1).Task()); err != nil {
			b.Fatal(err)
		}
		if _, err := m.RequestAdmittance(workload.NewMPEG().Task()); err != nil {
			b.Fatal(err)
		}
		if gs := m.Grants(); gs.Len() != 3 {
			b.Fatal("bad grant set")
		}
	}
}

// --- Table 5: Policy Box lookup ---

func BenchmarkTable5PolicyLookup(b *testing.B) {
	box := policy.NewBox()
	m := policy.Table5(box, [4]string{"t1", "t2", "t3", "t4"})
	active := []policy.MemberID{m[0], m[1], m[2], m[3]}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p := box.PolicyFor(active)
		if p.Invented {
			b.Fatal("lookup missed")
		}
	}
}

// --- Figure 3: the Table 4 schedule over one simulated second ---

func BenchmarkFig3Schedule(b *testing.B) {
	for i := 0; i < b.N; i++ {
		d := core.New(core.Config{SwitchCosts: zeroCosts()})
		_, _ = d.RequestAdmittance(workload.NewModem().Task(false))
		_, _ = d.RequestAdmittance(workload.NewGraphics3D(42).Task())
		_, _ = d.RequestAdmittance(workload.NewMPEG().Task())
		d.Run(ticks.PerSecond)
	}
}

// --- §6.1: context-switch cost sampling ---

func BenchmarkContextSwitchVoluntary(b *testing.B) {
	costs := sim.PaperSwitchCosts()
	rng := sim.NewRNG(1)
	var sink ticks.Ticks
	for i := 0; i < b.N; i++ {
		sink += costs.Sample(sim.Voluntary, rng)
	}
	_ = sink
}

func BenchmarkContextSwitchInvoluntary(b *testing.B) {
	costs := sim.PaperSwitchCosts()
	rng := sim.NewRNG(1)
	var sink ticks.Ticks
	for i := 0; i < b.N; i++ {
		sink += costs.Sample(sim.Involuntary, rng)
	}
	_ = sink
}

// BenchmarkSwitchOverheadMPEGAC3 reproduces the §6.1 overhead
// arithmetic: a tuned MPEG+AC3 system simulated for a second.
func BenchmarkSwitchOverheadMPEGAC3(b *testing.B) {
	period := ticks.PerSecond / 30
	for i := 0; i < b.N; i++ {
		d := core.New(core.Config{Seed: uint64(i + 1)})
		_, _ = d.RequestAdmittance(workload.NewMPEG().Task())
		_, _ = d.RequestAdmittance(workload.NewAC3().Task())
		for _, n := range []string{"mpeg-data", "ac3-data"} {
			_, _ = d.RequestAdmittance(&task.Task{
				Name: n, List: task.SingleLevel(period, ms/2, "M"), Body: task.PeriodicWork(ms / 2),
			})
		}
		_, _ = d.AddSporadicServer("ss", task.SingleLevel(period, ms/4, "SS"), false)
		d.Run(ticks.PerSecond)
		if f := d.KernelStats().SwitchOverheadFraction(); f > 0.02 {
			b.Fatalf("switch overhead %.3f, expected well under 2%%", f)
		}
	}
}

// --- §6.2: admission control (constant time) ---

func BenchmarkAdmission(b *testing.B) {
	for _, n := range []int{1, 10, 100} {
		b.Run(fmt.Sprintf("resident-%d", n), func(b *testing.B) {
			m := rm.New(rm.Config{})
			list := task.SingleLevel(270*ms, 270*ms/1000, "T") // 0.1%
			body := task.Busy()
			for i := 0; i < n; i++ {
				if _, err := m.RequestAdmittance(&task.Task{Name: fmt.Sprintf("r%d", i), List: list, Body: body}); err != nil {
					b.Fatal(err)
				}
			}
			probe := &task.Task{Name: "probe", List: list, Body: body}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				id, err := m.RequestAdmittance(probe)
				if err != nil {
					b.Fatal(err)
				}
				b.StopTimer()
				_ = m.Remove(id)
				b.StartTimer()
			}
		})
	}
}

// --- §6.3: grant-set determination, underload vs overload ---

func BenchmarkGrantSet(b *testing.B) {
	for _, overload := range []bool{false, true} {
		for _, n := range []int{2, 10, 50} {
			name := fmt.Sprintf("underload-%d", n)
			list := task.UniformLevels(270_000, "T", 1)
			if overload {
				name = fmt.Sprintf("overload-%d", n)
				list = task.UniformLevels(270_000, "T", 90, 50, 20, 10, 5, 2, 1)
			}
			b.Run(name, func(b *testing.B) {
				m := rm.New(rm.Config{})
				body := task.Busy()
				var last task.ID
				for i := 0; i < n; i++ {
					id, err := m.RequestAdmittance(&task.Task{Name: fmt.Sprintf("t%d", i), List: list, Body: body})
					if err != nil {
						b.Fatal(err)
					}
					last = id
				}
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					// Toggling quiescence forces a full grant-set
					// recomputation both ways.
					if err := m.SetQuiescent(last); err != nil {
						b.Fatal(err)
					}
					if err := m.Wake(last); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// --- §6.4: controlled vs uncontrolled preemption ---

func BenchmarkPreemption(b *testing.B) {
	run := func(b *testing.B, controlled bool) {
		for i := 0; i < b.N; i++ {
			d := core.New(core.Config{Seed: uint64(i + 1)})
			_, _ = d.RequestAdmittance(&task.Task{
				Name:                 "long",
				List:                 task.SingleLevel(45*ms, 15*ms, "L"),
				Body:                 task.CooperativeWork(15*ms, 50*ticks.PerMicrosecond),
				ControlledPreemption: controlled,
			})
			_, _ = d.RequestAdmittance(&task.Task{
				Name: "short", List: task.SingleLevel(10*ms, 5*ms, "S"), Body: task.PeriodicWork(5 * ms),
			})
			d.Run(ticks.PerSecond)
		}
	}
	b.Run("uncontrolled", func(b *testing.B) { run(b, false) })
	b.Run("controlled", func(b *testing.B) { run(b, true) })
}

// --- Figure 4: four periodic threads + Sporadic Server ---

func BenchmarkFig4Run(b *testing.B) {
	period := ticks.PerSecond / 30
	yieldAll := task.BodyFunc(func(ctx task.RunContext) task.RunResult {
		return task.RunResult{Used: ctx.Span, Op: task.OpYield, Completed: true}
	})
	for i := 0; i < b.N; i++ {
		d := core.New(core.Config{SwitchCosts: zeroCosts()})
		_, _ = d.AddSporadicServer("ss", task.SingleLevel(2_700_000, 27_000, "SS"), true)
		_, _ = d.RequestAdmittance(&task.Task{Name: "p7", List: task.SingleLevel(period, 13*ms, "P"), Body: task.Busy()})
		_, _ = d.RequestAdmittance(&task.Task{Name: "d8", List: task.SingleLevel(period, 2*ms, "D"), Body: yieldAll})
		_, _ = d.RequestAdmittance(&task.Task{Name: "p9", List: task.SingleLevel(period, 3*ms, "P"), Body: task.PeriodicWork(3 * ms)})
		_, _ = d.RequestAdmittance(&task.Task{Name: "d10", List: task.SingleLevel(period, 3*ms, "D"), Body: yieldAll})
		d.Run(ticks.PerSecond / 3)
	}
}

// --- Table 6 / Figure 5: the overload staircase ---

func BenchmarkTable6Staircase(b *testing.B) {
	for i := 0; i < b.N; i++ {
		d := core.New(core.Config{SwitchCosts: zeroCosts(), InterruptReservePercent: 4})
		_, _ = d.AddSporadicServer("ss", task.SingleLevel(2_700_000, 27_000, "SS"), true)
		for j := 0; j < 5; j++ {
			j := j
			d.At(ticks.Ticks(j)*20*ms, func() {
				_, _ = d.RequestAdmittance(workload.BusyLoopTask(fmt.Sprintf("t%d", j+2)))
			})
		}
		d.Run(200 * ms)
	}
}

// --- §3.4/3.5: baselines on the same workload ---

func BenchmarkBaseline(b *testing.B) {
	b.Run("fair-share", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			k := sim.NewKernel(sim.Config{Costs: sim.ZeroSwitchCosts()})
			fs := baseline.NewFairShare(k, ms)
			fs.Add("mpeg", 900_000, 1, workload.NewMPEG())
			for _, n := range []string{"w1", "w2", "w3"} {
				fs.Add(n, 10*ms, 1, task.PeriodicWork(3*ms))
			}
			fs.RunUntil(ticks.PerSecond)
		}
	})
	b.Run("reserves", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			k := sim.NewKernel(sim.Config{Costs: sim.ZeroSwitchCosts()})
			r := baseline.NewReserves(k)
			_ = r.Reserve("variable", 10*ms, 8*ms, task.PeriodicWork(2*ms))
			_ = r.Reserve("bg", 10*ms, 2*ms, task.Busy())
			r.RunUntil(ticks.PerSecond)
		}
	})
	b.Run("distributor", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			d := core.New(core.Config{SwitchCosts: zeroCosts()})
			_, _ = d.RequestAdmittance(workload.NewMPEG().Task())
			for _, n := range []string{"w1", "w2", "w3"} {
				_, _ = d.RequestAdmittance(&task.Task{
					Name: n,
					List: task.UniformLevels(10*ms, "W", 30, 20),
					Body: task.BodyFunc(func(ctx task.RunContext) task.RunResult {
						return task.RunResult{Used: ctx.Span, Op: task.OpYield, Completed: true}
					}),
				})
			}
			d.Run(ticks.PerSecond)
		}
	})
}

// --- §5.4: phase-locked display over ten simulated seconds ---

func BenchmarkClockPhaseLock(b *testing.B) {
	for i := 0; i < b.N; i++ {
		ext := extclock.New(120, 0)
		pl, err := extclock.NewPhaseLock(ext, 270_000, 269_500)
		if err != nil {
			b.Fatal(err)
		}
		d := core.New(core.Config{SwitchCosts: zeroCosts()})
		var id task.ID
		body := task.BodyFunc(func(ctx task.RunContext) task.RunResult {
			if ctx.NewPeriod {
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
		id, err = d.RequestAdmittance(&task.Task{
			Name: "display", List: task.SingleLevel(269_500, 2*ms, "R"), Body: body,
		})
		if err != nil {
			b.Fatal(err)
		}
		d.Run(10 * ticks.PerSecond)
	}
}

// --- ablations: the design choices DESIGN.md calls out ---

// BenchmarkAblationOverrideWindow sweeps the §4.2 small-overlap
// override; the interesting output is the simulated switch count,
// reported as a custom metric alongside wall time.
func BenchmarkAblationOverrideWindow(b *testing.B) {
	for _, us := range []int64{1, 200, 500} {
		b.Run(fmt.Sprintf("window-%dus", us), func(b *testing.B) {
			var switches int64
			for i := 0; i < b.N; i++ {
				d := core.New(core.Config{
					Seed:           uint64(i + 1),
					OverrideWindow: ticks.FromMicroseconds(us),
				})
				longCPU := 15*ms + 50*ticks.PerMicrosecond
				_, _ = d.RequestAdmittance(&task.Task{
					Name: "short", List: task.SingleLevel(10*ms, 5*ms, "S"), Body: task.PeriodicWork(5 * ms),
				})
				_, _ = d.RequestAdmittance(&task.Task{
					Name: "long", List: task.SingleLevel(45*ms, longCPU, "L"), Body: task.PeriodicWork(longCPU),
				})
				d.Run(ticks.PerSecond)
				st := d.KernelStats()
				switches += st.VolSwitches + st.InvolSwitches
			}
			b.ReportMetric(float64(switches)/float64(b.N), "switches/simsec")
		})
	}
}

// BenchmarkAblationGracePeriod sweeps the §5.6 grace window against a
// task polling for preemption every 150us.
func BenchmarkAblationGracePeriod(b *testing.B) {
	for _, us := range []int64{50, 200, 800} {
		b.Run(fmt.Sprintf("grace-%dus", us), func(b *testing.B) {
			var overruns int64
			for i := 0; i < b.N; i++ {
				d := core.New(core.Config{
					Seed:        uint64(i + 1),
					GracePeriod: ticks.FromMicroseconds(us),
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
				d.Run(ticks.PerSecond)
				st, _ := d.Stats(coop)
				overruns += st.Exceptions
			}
			b.ReportMetric(float64(overruns)/float64(b.N), "overruns/simsec")
		})
	}
}

// BenchmarkAblationPeriodSets contrasts harmonic and co-prime period
// sets (§6.1's Rialto discussion).
func BenchmarkAblationPeriodSets(b *testing.B) {
	sets := map[string][]int64{
		"harmonic": {10, 20, 40, 80},
		"co-prime": {7, 11, 13, 17},
	}
	for name, periods := range sets {
		b.Run(name, func(b *testing.B) {
			var switches int64
			for i := 0; i < b.N; i++ {
				d := core.New(core.Config{Seed: uint64(i + 1)})
				for j, p := range periods {
					period := ticks.FromMilliseconds(p)
					_, _ = d.RequestAdmittance(&task.Task{
						Name: fmt.Sprintf("t%d", j),
						List: task.SingleLevel(period, period/5, "T"),
						Body: task.PeriodicWork(period / 5),
					})
				}
				d.Run(ticks.PerSecond)
				st := d.KernelStats()
				switches += st.VolSwitches + st.InvolSwitches
			}
			b.ReportMetric(float64(switches)/float64(b.N), "switches/simsec")
		})
	}
}

// BenchmarkNotifierBaseline runs the §3.5 notification system on the
// overload-arrival scenario.
func BenchmarkNotifierBaseline(b *testing.B) {
	menu := []ticks.Ticks{4 * ms, 1 * ms}
	for i := 0; i < b.N; i++ {
		k := sim.NewKernel(sim.Config{Costs: sim.ZeroSwitchCosts()})
		nf := baseline.NewNotifier(k, 30*ms)
		nf.Add("a", 10*ms, menu)
		nf.Add("b", 10*ms, menu)
		k.At(100*ms, func() { nf.Add("c", 10*ms, menu) })
		nf.RunUntil(ticks.PerSecond)
	}
}

// --- substrate micro-benchmarks ---

func BenchmarkEventQueue(b *testing.B) {
	var q sim.EventQueue
	fn := func() {}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e1 := q.Push(ticks.Ticks(i), fn)
		q.Push(ticks.Ticks(i+7), fn)
		q.Cancel(e1)
		if e := q.Pop(); e == nil {
			b.Fatal("empty queue")
		}
	}
}

func BenchmarkSchedulerSteadyState(b *testing.B) {
	// Cost of scheduling one simulated second with ten periodic
	// tasks — the simulator's core loop throughput.
	for i := 0; i < b.N; i++ {
		k := sim.NewKernel(sim.Config{Costs: sim.ZeroSwitchCosts()})
		m := rm.New(rm.Config{})
		s := sched.New(sched.Config{Kernel: k, RM: m})
		m.SetHooks(s)
		for j := 0; j < 10; j++ {
			if _, err := m.RequestAdmittance(&task.Task{
				Name: fmt.Sprintf("t%d", j),
				List: task.SingleLevel(10*ms, ms/2, "T"),
				Body: task.PeriodicWork(ms / 2),
			}); err != nil {
				b.Fatal(err)
			}
		}
		s.RunUntil(ticks.PerSecond)
	}
}
