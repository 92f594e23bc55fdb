package sched_test

import (
	"fmt"
	"testing"

	"repro/internal/baseline"
	"repro/internal/core"
	"repro/internal/fleet"
	"repro/internal/sched"
	"repro/internal/sim"
	"repro/internal/task"
	"repro/internal/ticks"
)

// TestSliceEndUnderPerturbation pins what each body receives when
// kernel events end its slices early. Every slice, idle stretch and
// grace span ends at sim.Kernel.SliceEnd, and a run loop resumes at
// sim.Kernel.Settle, on the Resource Distributor and on the Reserves
// comparator alike. A task t (3 ms per 12 ms, the body under test)
// shares the CPU with c (PeriodicWork, 3 ms per 15 ms) for 1 s under
// zero switch costs and a 4 % interrupt reserve, with one perturbation
// source at a time:
//
//   - none;
//   - drip: a 25 µs interrupt every 1 ms (2.5 %, inside the reserve);
//   - noop: 29 kernel events that do nothing;
//   - cut: the run cut at the same 29 instants;
//   - governor: the overload governor sampling every 10 ms;
//   - fleet: the run on a one-node fleet, cut at every epoch barrier.
//
// The assign body is YieldAll that, at its first dispatch, assigns
// 50 ms of its grant to a sporadic BusySilent task (§5.1); sp is what
// that task used. Reserves reports its reservation times the periods
// started as granted, and has no overtime.
//
// The table records today's behaviour, not the guarantee: a body
// offered a span cut short by an event cannot tell it from its grant,
// so YieldAll and Busy lose grant time under every source that cuts
// slices. A change to the slice-end rule shows up as a diff of this
// table; a failing row prints its new literal.
func TestSliceEndUnderPerturbation(t *testing.T) {
	for _, want := range perturbTable {
		got := want
		got.t, got.c, got.sp = runPerturbed(t, want.substrate, want.body, want.perturbation)
		if got != want {
			t.Errorf("%s/%s/%s: got\n\t%s\nwant\n\t%s", want.substrate, want.body, want.perturbation, got.literal(), want.literal())
		}
	}
}

// pin is one task's accounting at the horizon.
type pin struct {
	used, granted, overtime ticks.Ticks
	misses                  int64
}

type perturbRow struct {
	substrate, body, perturbation string
	t, c                          pin
	sp                            ticks.Ticks
}

func (r perturbRow) literal() string {
	p := func(x pin) string { return fmt.Sprintf("pin{%d, %d, %d, %d}", x.used, x.granted, x.overtime, x.misses) }
	return fmt.Sprintf("{%q, %q, %q, %s, %s, %d},", r.substrate, r.body, r.perturbation, p(r.t), p(r.c), r.sp)
}

var perturbTable = []perturbRow{
	{"RD", "YieldAll", "none", pin{6804000, 6804000, 0, 0}, pin{5427000, 5427000, 0, 0}, 0},
	{"RD", "YieldAll", "drip", pin{2211975, 6804000, 0, 0}, pin{5427000, 5427000, 0, 0}, 0},
	{"RD", "YieldAll", "noop", pin{6299937, 6804000, 0, 0}, pin{5427000, 5427000, 0, 0}, 0},
	{"RD", "YieldAll", "cut", pin{6299937, 6804000, 0, 0}, pin{5427000, 5427000, 0, 0}, 0},
	{"RD", "YieldAll", "governor", pin{6372000, 6804000, 0, 0}, pin{5427000, 5427000, 0, 0}, 0},
	{"RD", "YieldAll", "fleet", pin{6372000, 6804000, 0, 0}, pin{5427000, 5427000, 0, 0}, 0},
	{"RD", "Busy", "none", pin{6804000, 6804000, 14769000, 0}, pin{5427000, 5427000, 0, 0}, 0},
	{"RD", "Busy", "drip", pin{2211975, 6804000, 18686700, 0}, pin{5427000, 5427000, 0, 0}, 0},
	{"RD", "Busy", "noop", pin{6299937, 6804000, 15273063, 0}, pin{5427000, 5427000, 0, 0}, 0},
	{"RD", "Busy", "cut", pin{6299937, 6804000, 15273063, 0}, pin{5427000, 5427000, 0, 0}, 0},
	{"RD", "Busy", "governor", pin{6372000, 6804000, 15201000, 0}, pin{5427000, 5427000, 0, 0}, 0},
	{"RD", "Busy", "fleet", pin{6372000, 6804000, 15201000, 0}, pin{5427000, 5427000, 0, 0}, 0},
	{"RD", "BusySilent", "none", pin{6804000, 6804000, 0, 0}, pin{5427000, 5427000, 0, 0}, 0},
	{"RD", "BusySilent", "drip", pin{6804000, 6804000, 0, 0}, pin{5427000, 5427000, 0, 0}, 0},
	{"RD", "BusySilent", "noop", pin{6804000, 6804000, 0, 0}, pin{5427000, 5427000, 0, 0}, 0},
	{"RD", "BusySilent", "cut", pin{6804000, 6804000, 0, 0}, pin{5427000, 5427000, 0, 0}, 0},
	{"RD", "BusySilent", "governor", pin{6804000, 6804000, 0, 0}, pin{5427000, 5427000, 0, 0}, 0},
	{"RD", "BusySilent", "fleet", pin{6804000, 6804000, 0, 0}, pin{5427000, 5427000, 0, 0}, 0},
	{"RD", "PeriodicWork", "none", pin{6804000, 6804000, 0, 0}, pin{5427000, 5427000, 0, 0}, 0},
	{"RD", "PeriodicWork", "drip", pin{6804000, 6804000, 0, 0}, pin{5427000, 5427000, 0, 0}, 0},
	{"RD", "PeriodicWork", "noop", pin{6804000, 6804000, 0, 0}, pin{5427000, 5427000, 0, 0}, 0},
	{"RD", "PeriodicWork", "cut", pin{6804000, 6804000, 0, 0}, pin{5427000, 5427000, 0, 0}, 0},
	{"RD", "PeriodicWork", "governor", pin{6804000, 6804000, 0, 0}, pin{5427000, 5427000, 0, 0}, 0},
	{"RD", "PeriodicWork", "fleet", pin{6804000, 6804000, 0, 0}, pin{5427000, 5427000, 0, 0}, 0},
	{"RD", "assign", "none", pin{6804000, 6804000, 0, 0}, pin{5427000, 5427000, 0, 0}, 1350000},
	{"RD", "assign", "drip", pin{3139425, 6804000, 0, 0}, pin{5427000, 5427000, 0, 0}, 1350000},
	{"RD", "assign", "noop", pin{6371946, 6804000, 0, 0}, pin{5427000, 5427000, 0, 0}, 1350000},
	{"RD", "assign", "cut", pin{6371946, 6804000, 0, 0}, pin{5427000, 5427000, 0, 0}, 1350000},
	{"RD", "assign", "governor", pin{6453000, 6804000, 0, 0}, pin{5427000, 5427000, 0, 0}, 1350000},
	{"RD", "assign", "fleet", pin{6453000, 6804000, 0, 0}, pin{5427000, 5427000, 0, 0}, 1350000},
	{"Reserves", "YieldAll", "none", pin{6804000, 6804000, 0, 0}, pin{5427000, 5427000, 0, 0}, 0},
	{"Reserves", "YieldAll", "drip", pin{2179575, 6804000, 0, 0}, pin{5427000, 5427000, 0, 0}, 0},
	{"Reserves", "YieldAll", "noop", pin{6299937, 6804000, 0, 0}, pin{5427000, 5427000, 0, 0}, 0},
	{"Reserves", "YieldAll", "cut", pin{6299937, 6804000, 0, 0}, pin{5427000, 5427000, 0, 0}, 0},
	{"Reserves", "Busy", "none", pin{6804000, 6804000, 0, 0}, pin{5427000, 5427000, 0, 0}, 0},
	{"Reserves", "Busy", "drip", pin{6804000, 6804000, 0, 0}, pin{5427000, 5427000, 0, 0}, 0},
	{"Reserves", "Busy", "noop", pin{6804000, 6804000, 0, 0}, pin{5427000, 5427000, 0, 0}, 0},
	{"Reserves", "Busy", "cut", pin{6804000, 6804000, 0, 0}, pin{5427000, 5427000, 0, 0}, 0},
	{"Reserves", "BusySilent", "none", pin{6804000, 6804000, 0, 0}, pin{5427000, 5427000, 0, 0}, 0},
	{"Reserves", "BusySilent", "drip", pin{6804000, 6804000, 0, 0}, pin{5427000, 5427000, 0, 0}, 0},
	{"Reserves", "BusySilent", "noop", pin{6804000, 6804000, 0, 0}, pin{5427000, 5427000, 0, 0}, 0},
	{"Reserves", "BusySilent", "cut", pin{6804000, 6804000, 0, 0}, pin{5427000, 5427000, 0, 0}, 0},
	{"Reserves", "PeriodicWork", "none", pin{6804000, 6804000, 0, 0}, pin{5427000, 5427000, 0, 0}, 0},
	{"Reserves", "PeriodicWork", "drip", pin{6804000, 6804000, 0, 0}, pin{5427000, 5427000, 0, 0}, 0},
	{"Reserves", "PeriodicWork", "noop", pin{6804000, 6804000, 0, 0}, pin{5427000, 5427000, 0, 0}, 0},
	{"Reserves", "PeriodicWork", "cut", pin{6804000, 6804000, 0, 0}, pin{5427000, 5427000, 0, 0}, 0},
}

const (
	perturbHorizon = ticks.PerSecond
	dripEvery      = ms
	dripService    = 25 * ticks.PerMicrosecond
	assignAmount   = 50 * ms
)

// perturbInstants are the 29 instants of the noop and cut rows: off
// every period boundary and every drip.
func perturbInstants() []ticks.Ticks {
	at := make([]ticks.Ticks, 29)
	for i := range at {
		at[i] = ticks.Ticks(i+1)*33*ms + 333*ticks.PerMicrosecond
	}
	return at
}

func perturbBody(name string) task.Body {
	switch name {
	case "YieldAll":
		return task.YieldAll()
	case "Busy":
		return task.Busy()
	case "BusySilent":
		return task.BusySilent()
	case "PeriodicWork":
		return task.PeriodicWork(3 * ms)
	}
	panic("perturbBody: unknown body " + name)
}

func runPerturbed(t *testing.T, substrate, body, perturbation string) (pt, pc pin, sp ticks.Ticks) {
	if substrate == "Reserves" {
		pt, pc = runReservesPerturbed(t, body, perturbation)
		return pt, pc, 0
	}
	var tid, cid task.ID
	var spID sched.SporadicID
	// admit builds the task set on d; the fleet row runs it as node 0's
	// resident load.
	admit := func(d *core.Distributor) error {
		var b task.Body
		if body == "assign" {
			spID = d.AddSporadic("sp", task.BusySilent())
			yield, assigned := task.YieldAll(), false
			b = task.BodyFunc(func(ctx task.RunContext) task.RunResult {
				if !assigned {
					assigned = true
					if err := d.AssignGrant(tid, spID, assignAmount); err != nil {
						t.Error(err)
					}
				}
				return yield.Run(ctx)
			})
		} else {
			b = perturbBody(body)
		}
		var err error
		if tid, err = d.RequestAdmittance(&task.Task{Name: "t", List: task.SingleLevel(12*ms, 3*ms, "T"), Body: b}); err != nil {
			return err
		}
		cid, err = d.RequestAdmittance(&task.Task{Name: "c", List: task.SingleLevel(15*ms, 3*ms, "C"), Body: task.PeriodicWork(3 * ms)})
		return err
	}
	zero := sim.ZeroSwitchCosts()
	var d *core.Distributor
	if perturbation == "fleet" {
		c, err := fleet.New(fleet.Config{Nodes: 1, Workers: 1, SwitchCosts: &zero, InterruptReservePercent: 4,
			NodeInit: func(nd *core.Distributor, _ int) error { d = nd; return admit(nd) }})
		if err != nil {
			t.Fatal(err)
		}
		c.Run(perturbHorizon)
	} else {
		d = core.New(core.Config{SwitchCosts: &zero, InterruptReservePercent: 4})
		if err := admit(d); err != nil {
			t.Fatal(err)
		}
		switch perturbation {
		case "drip":
			if err := d.AddInterruptLoad(dripEvery, dripService); err != nil {
				t.Fatal(err)
			}
		case "noop":
			for _, at := range perturbInstants() {
				d.At(at, func() {})
			}
		case "cut":
			for _, at := range perturbInstants() {
				d.RunUntil(at)
			}
		case "governor":
			d.EnableOverloadGovernor(10 * ms)
		case "none":
		default:
			t.Fatalf("unknown perturbation %q", perturbation)
		}
		d.RunUntil(perturbHorizon)
	}
	rd := func(id task.ID) pin {
		st, ok := d.Stats(id)
		if !ok {
			t.Fatalf("no stats for task %d", id)
		}
		return pin{st.UsedTicks, st.GrantedTicks, st.OvertimeTicks, st.Misses}
	}
	if body == "assign" {
		st, _ := d.Scheduler().SporadicStatsOf(spID)
		sp = st.UsedTicks
	}
	return rd(tid), rd(cid), sp
}

// runReservesPerturbed is runPerturbed on the Reserves comparator, for
// the none, drip, noop and cut rows.
func runReservesPerturbed(t *testing.T, body, perturbation string) (pt, pc pin) {
	k := sim.NewKernel(sim.Config{Costs: sim.ZeroSwitchCosts()})
	r := baseline.NewReserves(k)
	if err := r.Reserve("t", 12*ms, 3*ms, perturbBody(body)); err != nil {
		t.Fatal(err)
	}
	if err := r.Reserve("c", 15*ms, 3*ms, task.PeriodicWork(3*ms)); err != nil {
		t.Fatal(err)
	}
	switch perturbation {
	case "drip":
		// The interrupt source of sched.AddInterruptLoad: run the
		// handler, then re-arm on the nominal schedule.
		var irq func()
		irq = func() {
			k.RunInterrupt(dripService)
			k.After(dripEvery-dripService, irq)
		}
		k.After(dripEvery, irq)
	case "noop":
		for _, at := range perturbInstants() {
			k.At(at, func() {})
		}
	case "cut":
		for _, at := range perturbInstants() {
			r.RunUntil(at)
		}
	case "none":
	default:
		t.Fatalf("unknown Reserves perturbation %q", perturbation)
	}
	r.RunUntil(perturbHorizon)
	res := func(name string, budget ticks.Ticks) pin {
		st, ok := r.Stats(name)
		if !ok {
			t.Fatalf("no stats for %s", name)
		}
		return pin{used: st.UsedTicks, granted: budget * ticks.Ticks(st.Periods), misses: st.MissedPeriods}
	}
	return res("t", 3*ms), res("c", 3*ms)
}
