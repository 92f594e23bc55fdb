package main

import (
	"fmt"
	"runtime"
	"time"

	"repro/internal/core"
	"repro/internal/fleet"
	"repro/internal/invariant"
	"repro/internal/metrics"
	"repro/internal/policy"
	"repro/internal/rm"
	"repro/internal/sched"
	"repro/internal/sim"
	"repro/internal/task"
	"repro/internal/telemetry"
	"repro/internal/ticks"
	"repro/internal/trace"
	media "repro/internal/workload"
)

// The layer drivers time each layer's public entry points in a loop
// on fixed inputs, outside any workload. They say what one call costs;
// the workloads say how often it is made. Inputs never depend on
// -seed, so a driver's number only moves when its layer does.

const msTicks = ticks.PerMillisecond

// measure calls fn until budget has passed and returns nanoseconds
// per operation at the reference machine speed. fn reports how many operations it did and how long
// they took; set-up it does off its own clock still counts against
// the budget, so a driver never overruns it by more than one call.
func measure(budget time.Duration, fn func() (ops int, on time.Duration)) float64 {
	runtime.GC() // every driver starts on the same heap, whatever workload ran before it
	var ops int
	var on time.Duration
	for start := time.Now(); time.Since(start) < budget; {
		n, d := fn()
		ops += n
		on += d
	}
	driverSpeed = speedAfter(0)
	return float64(on.Nanoseconds()) / float64(ops) * driverSpeed
}

// driverSpeed is the machine speed measured after the last driver, for
// the few metrics derived from a driver's side timings. Like every
// other time here, a driver's result is reported at the reference
// speed.
var driverSpeed float64

// batch wraps a set-up-free body: n operations, all on the clock.
func batch(n int, body func()) func() (int, time.Duration) {
	return func() (int, time.Duration) {
		t := time.Now()
		body()
		return n, time.Since(t)
	}
}

// sink keeps results alive so the compiler cannot drop a measured call.
var sink int64

type nopHandler struct{}

func (nopHandler) HandleEvent(op, id int32, arg ticks.Ticks) {}

func yieldAll() task.Body {
	return task.BodyFunc(func(ctx task.RunContext) task.RunResult {
		return task.RunResult{Used: ctx.Span, Op: task.OpYield, Completed: true}
	})
}

func zeroCosts() *sim.SwitchCosts {
	c := sim.ZeroSwitchCosts()
	return &c
}

func paperCosts() *sim.SwitchCosts {
	c := sim.PaperSwitchCosts()
	return &c
}

// tenTasks admits ten 5 % periodic tasks with a 10 ms period.
func tenTasks(d *core.Distributor) {
	for j := 0; j < 10; j++ {
		if _, err := d.RequestAdmittance(&task.Task{
			Name: fmt.Sprintf("t%d", j),
			List: task.SingleLevel(10*msTicks, msTicks/2, "T"),
			Body: task.PeriodicWork(msTicks / 2),
		}); err != nil {
			panic(err) // fixed input that always fits: a denial is a bug
		}
	}
}

// residentCluster builds an n-node fleet whose only load is four
// resident tasks per node, so Cluster.Run measures epoch advance and
// barrier fan-out with an idle coordinator.
func residentCluster(n int) *fleet.Cluster {
	c, err := fleet.New(fleet.Config{
		Nodes: n, Seed: 1, Workers: 1, SwitchCosts: paperCosts(), Invariants: true,
		NodeInit: func(d *core.Distributor, _ int) error {
			for j := 0; j < 4; j++ {
				if _, err := d.RequestAdmittance(&task.Task{
					Name: fmt.Sprintf("r%d", j),
					List: task.SingleLevel(10*msTicks, msTicks, "R"),
					Body: yieldAll(),
				}); err != nil {
					return err
				}
			}
			return nil
		},
	})
	if err != nil {
		panic(err)
	}
	return c
}

// mallocs reads the process's cumulative allocation count.
func mallocs() uint64 {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m.Mallocs
}

// layerDrivers runs every driver for budget each and reports one
// metric per driver (admit-deny reports two).
func layerDrivers(budget time.Duration, emit func(name string, v float64, unit string)) {
	// ticks: exact rational add, the admission sum's inner step.
	fracs := make([]ticks.Frac, 0, 16)
	for i, period := range []int64{5, 10, 20, 40, 30, 33, 45, 270} {
		fracs = append(fracs,
			ticks.FracOf(ticks.Ticks(3+i)*msTicks/10, ticks.FromMilliseconds(period)),
			ticks.FracOf(ticks.Ticks(7+i)*msTicks/100, ticks.FromMilliseconds(period)))
	}
	emit("ticks.frac_add_ns", measure(budget, batch(64*len(fracs), func() {
		for r := 0; r < 64; r++ {
			sum := ticks.FracZero
			for _, f := range fracs {
				sum = sum.Add(f)
			}
			sink += sum.Num
		}
	})), "ns")

	// sim: event queue, kernel dispatch, switch-cost sampling.
	var q sim.EventQueue
	fn := func() {}
	var qi int64
	emit("sim.event_push_pop_ns", measure(budget, batch(1024, func() {
		for r := 0; r < 1024; r++ {
			e1 := q.Push(ticks.Ticks(qi), fn)
			q.Push(ticks.Ticks(qi+7), fn)
			q.Cancel(e1)
			q.Recycle(q.Pop())
			qi++
		}
	})), "ns")

	k := sim.NewKernel(sim.Config{Costs: sim.ZeroSwitchCosts()})
	emit("sim.kernel_step_ns", measure(budget, batch(1024, func() {
		for r := 0; r < 1024; r++ {
			k.AfterCall(3, nopHandler{}, 0, 0, 0)
			k.Step()
		}
	})), "ns")

	paper := sim.PaperSwitchCosts()
	rng := sim.NewRNG(1)
	emit("sim.switch_sample_ns", measure(budget, batch(1024, func() {
		var s ticks.Ticks
		for r := 0; r < 512; r++ {
			s += paper.Sample(sim.Voluntary, rng)
			s += paper.Sample(sim.Involuntary, rng)
		}
		sink += int64(s)
	})), "ns")

	// sched: one period of one granted task, through the assembled
	// Distributor (ten tasks, 10 ms periods, one simulated second).
	emit("sched.period_ns", measure(budget, func() (int, time.Duration) {
		d := core.New(core.Config{SwitchCosts: zeroCosts()})
		tenTasks(d)
		t := time.Now()
		d.Run(ticks.PerSecond)
		return 10 * 100, time.Since(t)
	}), "ns")

	// rm: admission accept, deny, remove, with ten residents.
	small := task.SingleLevel(270*msTicks, 270*msTicks/1000, "T") // 0.1 %
	newManager := func(resident task.ResourceList) *rm.Manager {
		m := rm.New(rm.Config{})
		for i := 0; i < 10; i++ {
			if _, err := m.RequestAdmittance(&task.Task{Name: fmt.Sprintf("r%d", i), List: resident, Body: task.Busy()}); err != nil {
				panic(err)
			}
		}
		return m
	}
	m := newManager(small)
	probes := make([]*task.Task, 64)
	for i := range probes {
		probes[i] = &task.Task{Name: fmt.Sprintf("p%d", i), List: small, Body: task.Busy()}
	}
	ids := make([]task.ID, len(probes))
	var removeOn time.Duration
	var removes int
	emit("rm.admit_accept_ns", measure(budget, func() (int, time.Duration) {
		t0 := time.Now()
		for i, p := range probes {
			id, err := m.RequestAdmittance(p)
			if err != nil {
				panic(err)
			}
			ids[i] = id
		}
		t1 := time.Now()
		for _, id := range ids {
			if err := m.Remove(id); err != nil {
				panic(err)
			}
		}
		removeOn += time.Since(t1)
		removes += len(ids)
		return len(probes), t1.Sub(t0)
	}), "ns")
	emit("rm.remove_ns", float64(removeOn.Nanoseconds())/float64(removes)*driverSpeed, "ns")

	// Deny: residents hold 90 % in minimums, the probe's minimum is 20 %.
	full := newManager(task.SingleLevel(10*msTicks, 9*msTicks/10, "T"))
	big := &task.Task{Name: "big", List: task.UniformLevels(10*msTicks, "B", 40, 20), Body: task.Busy()}
	var denyAllocs uint64
	var denies int
	emit("rm.admit_deny_ns", measure(budget, func() (int, time.Duration) {
		a0 := mallocs()
		t := time.Now()
		for r := 0; r < 256; r++ {
			if _, err := full.RequestAdmittance(big); err == nil {
				panic("rm admitted past capacity")
			}
		}
		d := time.Since(t)
		denyAllocs += mallocs() - a0
		denies += 256
		return 256, d
	}), "ns")
	emit("rm.admit_deny_allocs", float64(denyAllocs)/float64(denies), "count")

	// policy: a Table 5 lookup that hits.
	box := policy.NewBox()
	t5 := policy.Table5(box, [4]string{"t1", "t2", "t3", "t4"})
	active := t5[:]
	emit("policy.consult_ns", measure(budget, batch(1024, func() {
		for r := 0; r < 1024; r++ {
			if box.PolicyFor(active).Invented {
				panic("policy lookup missed")
			}
		}
	})), "ns")

	// invariant: the same run with and without the checker attached,
	// per audited period.
	var with, without time.Duration
	var periods int64
	measure(2*budget, func() (int, time.Duration) {
		chk := invariant.New(nil)
		d := core.New(core.Config{SwitchCosts: zeroCosts(), Observer: chk})
		chk.Bind(d.Kernel(), d.Manager(), d.Scheduler())
		tenTasks(d)
		t0 := time.Now()
		d.Run(ticks.PerSecond)
		t1 := time.Now()
		chk.Finish()
		if chk.NViolations() != 0 {
			panic("invariant checker fired on a feasible task set")
		}
		bare := core.New(core.Config{SwitchCosts: zeroCosts()})
		tenTasks(bare)
		t2 := time.Now()
		bare.Run(ticks.PerSecond)
		with += t1.Sub(t0)
		without += time.Since(t2)
		periods += chk.PeriodsClosed()
		return 1, t1.Sub(t0)
	})
	emit("invariant.period_overhead_ns", float64((with-without).Nanoseconds())/float64(periods)*driverSpeed, "ns")

	// core: assemble a Distributor the way a sweep run does (telemetry
	// registry on) and admit the media mix.
	emit("core.build_us", measure(budget, batch(1, func() {
		d := core.New(core.Config{
			SwitchCosts: paperCosts(),
			Telemetry:   &telemetry.Set{Registry: telemetry.NewRegistry()},
		})
		for _, t := range []*task.Task{
			media.NewModem().Task(false), media.NewAC3().Task(),
			media.NewGraphics3D(1).Task(), media.NewMPEG().Task(),
		} {
			if _, err := d.RequestAdmittance(t); err != nil {
				panic(err)
			}
		}
	}))/1e3, "us")

	// fleet: cluster construction and one idle epoch, at the two node
	// counts the fleet workloads use.
	const epochs = 20 // 200 ms at the default 10 ms epoch
	for _, n := range []int{16, 120} {
		var runOn time.Duration
		var runs int
		build := measure(budget, func() (int, time.Duration) {
			t0 := time.Now()
			c := residentCluster(n)
			t1 := time.Now()
			rep := c.Run(epochs * 10 * msTicks)
			runOn += time.Since(t1)
			runs++
			if rep.Violations != 0 || len(rep.Stalled) != 0 {
				panic("resident-only cluster reported a violation")
			}
			return 1, t1.Sub(t0)
		})
		emit(fmt.Sprintf("fleet.build_ms_n%d", n), build/1e6, "ms")
		emit(fmt.Sprintf("fleet.epoch_us_n%d", n), float64(runOn.Nanoseconds())/float64(runs*epochs)/1e3*driverSpeed, "us")
	}

	// telemetry: counter increment and black-box recording.
	ctr := telemetry.NewRegistry().Counter("bench.counter")
	emit("telemetry.counter_inc_ns", measure(budget, batch(4096, func() {
		for r := 0; r < 4096; r++ {
			ctr.Inc()
		}
	})), "ns")
	sink += ctr.Value()

	fl := telemetry.NewFlight(0, 0)
	var at ticks.Ticks
	emit("telemetry.flight_record_ns", measure(budget, batch(2048, func() {
		for r := 0; r < 1024; r++ {
			fl.Ring().Complete(at, at+5, "bench", "slice", 1, 0, "")
			fl.Event(at, "bench.event", "")
			at += 10
		}
	})), "ns")

	// trace: the recorder's per-dispatch and per-period appends.
	emit("trace.record_ns", measure(budget, func() (int, time.Duration) {
		rec := trace.New()
		rec.Reserve(4096)
		t := time.Now()
		for r := 0; r < 2048; r++ {
			from := ticks.Ticks(r) * msTicks
			rec.OnPeriodStart(1, from, from+msTicks, 0, msTicks/2)
			rec.OnDispatch(1, "t", from, from+msTicks/2, sched.DispatchGranted, 0)
		}
		return 4096, time.Since(t)
	}), "ns")

	// metrics: folding one 64-run chunk's summary into a cell's.
	var chunk metrics.Summary
	for i := 0; i < 64; i++ {
		chunk.Add(float64(i))
	}
	emit("metrics.summary_merge_ns", measure(budget, func() (int, time.Duration) {
		var cell metrics.Summary
		t := time.Now()
		for r := 0; r < 64; r++ {
			cell.Merge(&chunk)
		}
		d := time.Since(t)
		sink += int64(cell.N())
		return 64, d
	}), "ns")
}
