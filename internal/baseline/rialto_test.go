package baseline

import (
	"testing"

	"repro/internal/sim"
	"repro/internal/task"
	"repro/internal/ticks"
	"repro/internal/workload"
)

func frameBody() task.Body {
	return task.BodyFunc(func(ctx task.RunContext) task.RunResult {
		return task.RunResult{Used: ctx.Span, Op: task.OpRanOut}
	})
}

func TestRialtoAcceptsFeasibleConstraints(t *testing.T) {
	k := kernel()
	r := NewRialto(k)
	r.AddTask("app", 10*ms, 0)
	// 3ms of work due in 10ms on an idle machine: accepted and done.
	if !r.BeginConstraint("app", 10*ms, 3*ms, frameBody()) {
		t.Fatal("feasible constraint refused")
	}
	r.RunUntil(20 * ms)
	st, _ := r.Stats("app")
	if st.Completed != 1 || st.MissedPeriods != 0 {
		t.Errorf("stats = %+v, want one completion", st)
	}
	if st.UsedTicks != 3*ms {
		t.Errorf("used = %v, want 3ms", st.UsedTicks)
	}
}

func TestRialtoRefusesWhenReserved(t *testing.T) {
	k := kernel()
	r := NewRialto(k)
	r.AddTask("res", 10*ms, 8*ms) // 80% reserved
	r.AddTask("app", 10*ms, 0)
	// 3ms due in 10ms with only 2ms free: refused.
	if r.BeginConstraint("app", 10*ms, 3*ms, frameBody()) {
		t.Error("infeasible constraint accepted")
	}
	// 1.5ms fits in the 2ms of slack.
	if !r.BeginConstraint("app", 10*ms, 15*ms/10, frameBody()) {
		t.Error("feasible constraint refused")
	}
}

func TestRialtoRefusalsByArrivalOrder(t *testing.T) {
	// Two apps race for the same slack: whoever asks first wins,
	// whoever asks second is refused — the accident of timing.
	k := kernel()
	r := NewRialto(k)
	r.AddTask("res", 10*ms, 6*ms)
	r.AddTask("first", 10*ms, 0)
	r.AddTask("second", 10*ms, 0)
	if !r.BeginConstraint("first", 10*ms, 3*ms, frameBody()) {
		t.Fatal("first constraint refused")
	}
	if r.BeginConstraint("second", 10*ms, 3*ms, frameBody()) {
		t.Error("second constraint accepted beyond capacity")
	}
}

func TestRialtoUnknownAndDegenerate(t *testing.T) {
	k := kernel()
	r := NewRialto(k)
	r.AddTask("app", 10*ms, 0)
	if r.BeginConstraint("ghost", 10*ms, ms, frameBody()) {
		t.Error("constraint for unknown task accepted")
	}
	if r.BeginConstraint("app", 10*ms, 0, frameBody()) {
		t.Error("zero-estimate constraint accepted")
	}
	k.Idle(20 * ms)
	if r.BeginConstraint("app", 10*ms, ms, frameBody()) {
		t.Error("constraint with past deadline accepted")
	}
	if _, ok := r.Stats("ghost"); ok {
		t.Error("stats for unknown task")
	}
}

// TestRialtoMPEGRefusalsHitArbitraryFrames is the §3.4 critique as an
// experiment: a constraint-per-frame MPEG decoder under overload gets
// refusals decided by instantaneous slack — and some land on I
// frames, which the RD's level-based shedding never risks.
func TestRialtoMPEGRefusalsHitArbitraryFrames(t *testing.T) {
	k := kernel()
	r := NewRialto(k)
	// A 40% reservation plus a competing constraint-based app whose
	// per-window demand varies; it happens to request just before
	// MPEG each frame time. Whether MPEG's constraint fits depends on
	// the competitor's instantaneous demand — the accident of timing.
	r.AddTask("hog", 10*ms, 4*ms)
	r.AddTask("rival", 900_000, 0)
	r.AddTask("mpeg", 900_000, 0)
	rng := sim.NewRNG(5)

	gop := []workload.FrameType(workload.DefaultGOP)
	var refusedI, refusedTotal, accepted int
	frame := 0
	var schedule func()
	schedule = func() {
		// The rival asks first (same instant, earlier arrival).
		estimate := ticks.Ticks(100_000 + rng.Intn(400_000))
		_ = r.BeginConstraint("rival", k.Now()+900_000, estimate, frameBody())

		ftype := gop[frame%len(gop)]
		frame++
		ok := r.BeginConstraint("mpeg", k.Now()+900_000, workload.MPEGFrameCost, frameBody())
		if ok {
			accepted++
		} else {
			refusedTotal++
			if ftype == workload.IFrame {
				refusedI++
			}
		}
		if k.Now()+900_000 < 2*ticks.PerSecond {
			k.At(k.Now()+900_000, schedule)
		}
	}
	k.At(0, schedule)
	r.RunUntil(2 * ticks.PerSecond)

	if refusedTotal == 0 {
		t.Fatal("no refusals despite a 75% reservation against a 33% stream")
	}
	if refusedI == 0 {
		t.Errorf("refusals (%d) never hit an I frame; the accident-of-timing should be type-blind", refusedTotal)
	}
	if accepted == 0 {
		t.Error("no frames decoded at all")
	}
	t.Logf("rialto: %d accepted, %d refused (%d were I frames)", accepted, refusedTotal, refusedI)
}

// TestRialtoReservedUtilizationStaysExact is the regression for the
// running product of periods AddTask used to keep: four 10% reserves
// with periods 270 000, 900 000, 810 001 and 540 007 ticks overflowed
// int64 (reserved utilization read 9.32 and every constraint was
// refused), and a fifth wrapped it negative (every constraint
// accepted). Held as a ticks.Frac the sum is 40%, then 50%.
func TestRialtoReservedUtilizationStaysExact(t *testing.T) {
	k := kernel()
	r := NewRialto(k)
	for i, period := range []ticks.Ticks{270_000, 900_000, 810_001, 540_007} {
		if err := r.AddTask(string(rune('a'+i)), period, period/10); err != nil {
			t.Fatal(err)
		}
	}
	if err := r.AddTask("app", 10*ms, 0); err != nil {
		t.Fatal(err)
	}
	if u := r.sum.Float(); u < 0.3999 || u > 0.4001 {
		t.Errorf("reserved utilization = %v after four 10%% reserves", u)
	}
	// 60% of a 10ms window is free: 5ms fits, a further 2ms does not.
	if !r.BeginConstraint("app", 10*ms, 5*ms, frameBody()) {
		t.Error("5ms constraint refused with 6ms of slack")
	}
	if r.BeginConstraint("app", 10*ms, 2*ms, frameBody()) {
		t.Error("2ms constraint accepted with 1ms of slack")
	}
	if err := r.AddTask("e", 1_080_011, 108_001); err != nil {
		t.Fatal(err)
	}
	if u := r.sum.Float(); u < 0.4999 || u > 0.5001 {
		t.Errorf("reserved utilization = %v after five 10%% reserves", u)
	}
	if r.BeginConstraint("app", 10*ms, 2*ms, frameBody()) {
		t.Error("2ms constraint accepted with no slack left")
	}
}

func TestRialtoAddTaskValidation(t *testing.T) {
	r := NewRialto(kernel())
	for _, bad := range []struct{ period, budget ticks.Ticks }{
		{0, 0}, {-10 * ms, 0}, {10 * ms, -1}, {10 * ms, 11 * ms},
	} {
		if err := r.AddTask("bad", bad.period, bad.budget); err == nil {
			t.Errorf("AddTask(period %v, budget %v) accepted", bad.period, bad.budget)
		}
	}
	if _, ok := r.Stats("bad"); ok {
		t.Error("a rejected task was registered")
	}
	if err := r.AddTask("full", 10*ms, 10*ms); err != nil {
		t.Errorf("budget == period rejected: %v", err)
	}
}
