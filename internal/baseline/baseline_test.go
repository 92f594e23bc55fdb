package baseline

import (
	"errors"
	"testing"

	"repro/internal/core"
	"repro/internal/sim"
	"repro/internal/task"
	"repro/internal/ticks"
	"repro/internal/workload"
)

const ms = ticks.PerMillisecond

func kernel() *sim.Kernel {
	return sim.NewKernel(sim.Config{Costs: sim.ZeroSwitchCosts()})
}

func TestFairShareUnderloadMeetsDeadlines(t *testing.T) {
	k := kernel()
	f := NewFairShare(k, ms)
	f.Add("a", 10*ms, 1, task.PeriodicWork(3*ms))
	f.Add("b", 10*ms, 1, task.PeriodicWork(3*ms))
	f.RunUntil(ticks.PerSecond)
	for _, n := range []string{"a", "b"} {
		st, ok := f.Stats(n)
		if !ok || st.MissedPeriods != 0 {
			t.Errorf("%s: %+v, want zero misses in underload", n, st)
		}
		if st.UsedTicks != 300*ms {
			t.Errorf("%s used %v, want 300ms", n, st.UsedTicks)
		}
	}
}

func TestFairShareOverloadMissesDeadlines(t *testing.T) {
	// §3.4: "In overload, conventional tasks continue to make
	// progress, but real-time requirements are not necessarily met."
	// Four equal-weight tasks each needing 30% -> each gets 25%.
	k := kernel()
	f := NewFairShare(k, ms)
	for _, n := range []string{"a", "b", "c", "d"} {
		f.Add(n, 10*ms, 1, task.PeriodicWork(3*ms))
	}
	f.RunUntil(ticks.PerSecond)
	missed := int64(0)
	for _, n := range []string{"a", "b", "c", "d"} {
		st, _ := f.Stats(n)
		missed += st.MissedPeriods
		if st.UsedTicks == 0 {
			t.Errorf("%s starved entirely", n)
		}
	}
	if missed == 0 {
		t.Error("no deadline misses in 120% overload under fair share")
	}
}

func TestFairShareWeights(t *testing.T) {
	// A weight-3 hog against a weight-1 hog gets ~3x the CPU.
	k := kernel()
	f := NewFairShare(k, ms)
	f.Add("heavy", 100*ms, 3, task.Busy())
	f.Add("light", 100*ms, 1, task.Busy())
	f.RunUntil(ticks.PerSecond)
	h, _ := f.Stats("heavy")
	l, _ := f.Stats("light")
	ratio := float64(h.UsedTicks) / float64(l.UsedTicks)
	if ratio < 2.7 || ratio > 3.3 {
		t.Errorf("weight ratio = %.2f, want ~3", ratio)
	}
}

func TestReservesAdmissionControl(t *testing.T) {
	k := kernel()
	r := NewReserves(k)
	if err := r.Reserve("a", 10*ms, 6*ms, task.Busy()); err != nil {
		t.Fatal(err)
	}
	if err := r.Reserve("b", 10*ms, 5*ms, task.Busy()); !errors.Is(err, ErrReserveDenied) {
		t.Errorf("110%% reservation accepted: %v", err)
	}
	if err := r.Reserve("c", 10*ms, 4*ms, task.Busy()); err != nil {
		t.Errorf("exact fit denied: %v", err)
	}
	if err := r.Reserve("bad", 10*ms, 11*ms, nil); err == nil {
		t.Error("budget > period accepted")
	}
}

func TestReservesEnforcement(t *testing.T) {
	// A greedy task cannot impinge on another's reservation.
	k := kernel()
	r := NewReserves(k)
	if err := r.Reserve("greedy", 10*ms, 6*ms, task.Busy()); err != nil {
		t.Fatal(err)
	}
	if err := r.Reserve("meek", 10*ms, 4*ms, task.PeriodicWork(4*ms)); err != nil {
		t.Fatal(err)
	}
	r.RunUntil(ticks.PerSecond)
	m, _ := r.Stats("meek")
	if m.MissedPeriods != 0 {
		t.Errorf("meek missed %d periods", m.MissedPeriods)
	}
	if m.UsedTicks != 400*ms {
		t.Errorf("meek used %v, want 400ms", m.UsedTicks)
	}
	g, _ := r.Stats("greedy")
	if g.UsedTicks != 600*ms {
		t.Errorf("greedy used %v, want exactly its 600ms reservation", g.UsedTicks)
	}
}

func TestReservesWasteUnusedReservation(t *testing.T) {
	// §3.5: reserves "foster the over-reservation of resources so
	// that deadlines can be met" and the unused part is not
	// redistributed. A variable task reserving its worst case wastes
	// the difference even with a hungry background task present.
	k := kernel()
	r := NewReserves(k)
	// Variable demand: actually uses 2ms but must reserve 8ms.
	if err := r.Reserve("variable", 10*ms, 8*ms, task.PeriodicWork(2*ms)); err != nil {
		t.Fatal(err)
	}
	// Background hog with the leftover 2ms reservation.
	if err := r.Reserve("bg", 10*ms, 2*ms, task.Busy()); err != nil {
		t.Fatal(err)
	}
	r.RunUntil(ticks.PerSecond)
	if u := r.Utilization(); u > 0.45 {
		t.Errorf("utilization = %.2f; reserves should strand the over-reserved CPU", u)
	}
	bg, _ := r.Stats("bg")
	if bg.UsedTicks != 200*ms {
		t.Errorf("bg used %v, want exactly its 200ms reservation", bg.UsedTicks)
	}
}

// TestMPEGQualityAcrossSchedulers is the X1 experiment: the same
// MPEG decoder and the same 120% overload under all three schedulers.
// Fair share loses I frames by accident of timing; the Resource
// Distributor sheds only B frames, by policy.
func TestMPEGQualityAcrossSchedulers(t *testing.T) {
	horizon := 2 * ticks.PerSecond

	// Fair share: MPEG (needs 33%) against three 30% workers.
	fsMPEG := workload.NewMPEG()
	k1 := kernel()
	fs := NewFairShare(k1, ms)
	fs.Add("mpeg", 900_000, 1, fsMPEG)
	for _, n := range []string{"w1", "w2", "w3"} {
		fs.Add(n, 10*ms, 1, task.PeriodicWork(3*ms))
	}
	fs.RunUntil(horizon)
	fsMPEG.Flush()

	// Resource Distributor: identical offered load.
	rdMPEG := workload.NewMPEG()
	zero := sim.ZeroSwitchCosts()
	d := core.New(core.Config{SwitchCosts: &zero})
	if _, err := d.RequestAdmittance(rdMPEG.Task()); err != nil {
		t.Fatal(err)
	}
	// Under the RD the workers present honest load-shedding menus
	// (30% or 20%) and consume whatever they are granted; fair share
	// has no such mechanism, so there they just demand 3ms.
	for _, n := range []string{"w1", "w2", "w3"} {
		if _, err := d.RequestAdmittance(&task.Task{
			Name: n,
			List: task.UniformLevels(10*ms, "W", 30, 20),
			Body: task.BodyFunc(func(ctx task.RunContext) task.RunResult {
				return task.RunResult{Used: ctx.Span, Op: task.OpYield, Completed: true}
			}),
		}); err != nil {
			t.Fatal(err)
		}
	}
	d.Run(horizon)
	rdMPEG.Flush()

	fsStats := fsMPEG.Stats()
	rdStats := rdMPEG.Stats()
	t.Logf("fair-share MPEG: %s", fsStats.QualityString())
	t.Logf("distributor MPEG: %s", rdStats.QualityString())

	if fsStats.UnplannedLoss == 0 {
		t.Error("fair share in overload should lose frames unpredictably")
	}
	if rdStats.UnplannedLoss != 0 || rdStats.LostI != 0 {
		t.Errorf("RD shed unexpectedly lost frames: %s", rdStats.QualityString())
	}
	if rdStats.PlannedDrops == 0 {
		t.Error("RD should shed via planned B drops")
	}
	if fsStats.LostI == 0 {
		t.Error("fair share should eventually lose an I frame by accident of timing")
	}
	if fsStats.Decoded >= rdStats.Decoded {
		t.Errorf("fair share showed %d intact frames >= RD's %d; expected worse quality",
			fsStats.Decoded, rdStats.Decoded)
	}
}

// TestUtilizationAcrossSchedulers: reserves strand worst-case
// reservations; the RD's overtime machinery hands unused grant to
// whoever can use it.
func TestUtilizationAcrossSchedulers(t *testing.T) {
	horizon := ticks.PerSecond

	k1 := kernel()
	r := NewReserves(k1)
	if err := r.Reserve("variable", 10*ms, 8*ms, task.PeriodicWork(2*ms)); err != nil {
		t.Fatal(err)
	}
	if err := r.Reserve("bg", 10*ms, 2*ms, task.Busy()); err != nil {
		t.Fatal(err)
	}
	r.RunUntil(horizon)
	reservesUtil := r.Utilization()

	zero := sim.ZeroSwitchCosts()
	d := core.New(core.Config{SwitchCosts: &zero})
	if _, err := d.RequestAdmittance(&task.Task{
		Name: "variable", List: task.SingleLevel(10*ms, 8*ms, "V"), Body: task.PeriodicWork(2 * ms),
	}); err != nil {
		t.Fatal(err)
	}
	if _, err := d.RequestAdmittance(&task.Task{
		Name: "bg", List: task.SingleLevel(10*ms, 2*ms, "BG"), Body: task.Busy(),
	}); err != nil {
		t.Fatal(err)
	}
	d.Run(horizon)
	rdUtil := d.KernelStats().Utilization()

	t.Logf("utilization: reserves=%.2f rd=%.2f", reservesUtil, rdUtil)
	if reservesUtil > 0.5 {
		t.Errorf("reserves utilization %.2f, want under 0.5 (stranded reserve)", reservesUtil)
	}
	if rdUtil < 0.99 {
		t.Errorf("RD utilization %.2f, want ~1.0 (overtime redistribution)", rdUtil)
	}
}

// TestComparatorsConserveTime drives Reserves, Notifier and Rialto
// directly — none of them is a sweep cell — and checks that every tick
// of the clock was accounted busy or idle (a bare kernel charges no
// switches and raises no interrupts), and that the clock stops at the
// horizon: every clock advance goes through sim.Kernel.Busy or Idle.
func TestComparatorsConserveTime(t *testing.T) {
	// 777ms is on no period boundary, so the last slice has to be cut.
	const horizon = 777 * ms
	check := func(name string, k *sim.Kernel) {
		t.Helper()
		st := k.Stats()
		if st.Now != horizon {
			t.Errorf("%s: clock at %v after RunUntil(%v)", name, st.Now, ticks.Ticks(horizon))
		}
		if st.BusyTicks == 0 || st.IdleTicks == 0 {
			t.Errorf("%s: busy %v, idle %v — the workload should produce both", name, st.BusyTicks, st.IdleTicks)
		}
		if sum := st.BusyTicks + st.IdleTicks; sum != st.Now || st.SwitchTicks+st.InterruptTicks != 0 {
			t.Errorf("%s: busy+idle = %d, clock = %d (switch %d, interrupt %d)",
				name, int64(sum), int64(st.Now), int64(st.SwitchTicks), int64(st.InterruptTicks))
		}
	}

	k := kernel()
	r := NewReserves(k)
	for _, res := range []struct {
		name           string
		period, budget ticks.Ticks
		body           task.Body
	}{
		{"long", 30 * ms, 12 * ms, task.Busy()},
		{"short", 7 * ms, 2 * ms, task.PeriodicWork(ms)},
		{"blocker", 11 * ms, 3 * ms, task.WorkThenBlock(ms, 0)},
	} {
		if err := r.Reserve(res.name, res.period, res.budget, res.body); err != nil {
			t.Fatal(err)
		}
	}
	k.At(333*ms+1, func() {}) // an event inside a slice
	r.RunUntil(horizon)
	check("reserves", k)

	k = kernel()
	nf := NewNotifier(k, 30*ms)
	menu := []ticks.Ticks{4 * ms, 1 * ms}
	nf.Add("a", 10*ms, menu)
	nf.Add("b", 13*ms, menu)
	k.At(100*ms, func() { nf.Add("c", 10*ms, menu) })
	nf.RunUntil(horizon)
	check("notifier", k)

	k = kernel()
	ri := NewRialto(k)
	_ = ri.AddTask("hog", 10*ms, 4*ms)
	_ = ri.AddTask("app", 33*ms, 0)
	var arrive func()
	arrive = func() {
		ri.BeginConstraint("app", k.Now()+33*ms, 9*ms, frameBody())
		if next := k.Now() + 33*ms; next < horizon {
			k.At(next, arrive)
		}
	}
	k.At(0, arrive)
	ri.RunUntil(horizon)
	check("rialto", k)
}
