package extclock

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/core"
	"repro/internal/sim"
	"repro/internal/task"
	"repro/internal/ticks"
	"repro/internal/trace"
)

const ms = ticks.PerMillisecond

func TestConstantDriftReadings(t *testing.T) {
	// +100 ppm: after 1e6 system ticks the external clock reads 100
	// ticks ahead.
	c := New(100, 0)
	if got := c.ReadAt(1_000_000); got != 1_000_100 {
		t.Errorf("ReadAt(1e6) = %d, want 1000100", got)
	}
	// Negative drift runs slow.
	s := New(-100, 0)
	if got := s.ReadAt(1_000_000); got != 999_900 {
		t.Errorf("slow ReadAt(1e6) = %d, want 999900", got)
	}
	// Offset shifts the origin.
	o := New(0, 500)
	if got := o.ReadAt(100); got != 600 {
		t.Errorf("offset ReadAt(100) = %d, want 600", got)
	}
}

func TestVariableDrift(t *testing.T) {
	// Fast then slow: +200ppm for the first 1e6 sys ticks, then
	// -200ppm. At 2e6 the net drift cancels.
	c := NewVariable(0,
		Segment{UntilSys: 1_000_000, DriftPPM: 200},
		Segment{UntilSys: Forever, DriftPPM: -200},
	)
	if got := c.ReadAt(1_000_000); got != 1_000_200 {
		t.Errorf("mid reading = %d, want 1000200", got)
	}
	if got := c.ReadAt(2_000_000); got != 2_000_000 {
		t.Errorf("end reading = %d, want 2000000 (drift cancels)", got)
	}
}

func TestNewVariableValidation(t *testing.T) {
	for _, fn := range []func(){
		func() { NewVariable(0) },
		func() { NewVariable(0, Segment{UntilSys: 5, DriftPPM: 0}) }, // no Forever
		func() {
			NewVariable(0,
				Segment{UntilSys: 10, DriftPPM: 0},
				Segment{UntilSys: 5, DriftPPM: 0})
		},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("invalid segment set did not panic")
				}
			}()
			fn()
		}()
	}
}

func TestSysAtInvertsReadAt(t *testing.T) {
	f := func(ppmRaw int16, sysRaw uint32) bool {
		ppm := float64(ppmRaw % 1000) // up to ±1000 ppm
		c := New(ppm, 0)
		sys := ticks.Ticks(sysRaw % 100_000_000)
		ext := c.ReadAt(sys)
		back := c.SysAt(ext)
		// Inversion is exact to within 1 tick of rounding.
		d := back - sys
		return d >= -1 && d <= 1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func TestBoundaryAfter(t *testing.T) {
	c := New(0, 0) // no drift
	// Boundaries every 270000 ext ticks = every 10ms.
	if got := c.BoundaryAfter(0, 270_000); got != 270_000 {
		t.Errorf("first boundary = %v, want 270000", got)
	}
	if got := c.BoundaryAfter(270_000, 270_000); got != 540_000 {
		t.Errorf("boundary after a boundary = %v, want 540000", got)
	}
	// With +1000ppm the external clock reaches 270000 earlier in
	// system time.
	fast := New(1000, 0)
	got := fast.BoundaryAfter(0, 270_000)
	if got >= 270_000 || got < 269_000 {
		t.Errorf("fast clock boundary = %v, want slightly under 270000", got)
	}
}

// unsmoothedLock is an EstimatingPhaseLock with smoothing 1, whose
// Rate is the last paired reading's skew alone.
func unsmoothedLock(t *testing.T) *EstimatingPhaseLock {
	t.Helper()
	l, err := NewEstimatingPhaseLock(270_000, 269_000, 1)
	if err != nil {
		t.Fatal(err)
	}
	return l
}

func TestSkewRecipe(t *testing.T) {
	c := New(50, 0) // +50 ppm
	l := unsmoothedLock(t)
	l.Observe(0, c.ReadAt(0))
	if l.Rate() != 0 {
		t.Errorf("priming reading moved the estimate to %.2f ppm", l.Rate())
	}
	sys := ticks.Ticks(27_000_000) // 1s later
	l.Observe(sys, c.ReadAt(sys))
	if math.Abs(l.Rate()-50) > 0.5 {
		t.Errorf("estimated drift = %.2f ppm, want ~50", l.Rate())
	}
	// A reading that does not advance the system clock is ignored.
	l.Observe(sys, c.ReadAt(sys)+1000)
	if math.Abs(l.Rate()-50) > 0.5 {
		t.Errorf("same-instant reading moved the estimate to %.2f ppm", l.Rate())
	}
}

func TestSkewRecipeTracksChange(t *testing.T) {
	c := NewVariable(0,
		Segment{UntilSys: ticks.PerSecond, DriftPPM: 80},
		Segment{UntilSys: Forever, DriftPPM: -40},
	)
	l := unsmoothedLock(t)
	l.Observe(0, c.ReadAt(0))
	l.Observe(ticks.PerSecond, c.ReadAt(ticks.PerSecond))
	p1 := l.Rate()
	l.Observe(2*ticks.PerSecond, c.ReadAt(2*ticks.PerSecond))
	p2 := l.Rate()
	if math.Abs(p1-80) > 1 || math.Abs(p2+40) > 1 {
		t.Errorf("estimates = %.1f/%.1f ppm, want ~80/-40", p1, p2)
	}
}

func TestPhaseLockInsertionNonNegative(t *testing.T) {
	c := New(75, 0)
	pl, err := NewPhaseLock(c, 270_000, 269_000)
	if err != nil {
		t.Fatal(err)
	}
	start := ticks.Ticks(0)
	for i := 0; i < 1000; i++ {
		ins := pl.Insertion(start)
		if ins < 0 {
			t.Fatalf("negative insertion %v at period %d", ins, i)
		}
		start += 269_000 + ins
	}
}

func TestNewPhaseLockValidation(t *testing.T) {
	c := New(0, 0)
	if _, err := NewPhaseLock(c, 0, 100); err == nil {
		t.Error("zero ext period accepted")
	}
	if _, err := NewPhaseLock(c, 100, 0); err == nil {
		t.Error("zero nominal accepted")
	}
}

// TestPhaseLockEndToEnd runs a full Distributor with a display task
// phase-locked to a drifting 100Hz refresh clock via
// InsertIdleCycles, and checks that every period start lands on an
// external boundary within a tight tolerance while other tasks are
// unaffected — the X2 experiment from DESIGN.md.
func TestPhaseLockEndToEnd(t *testing.T) {
	drift := 120.0 // external refresh crystal runs +120 ppm fast
	ext := New(drift, 0)
	extPeriod := ticks.Ticks(270_000) // 10ms in external ticks
	nominal := ticks.Ticks(269_500)   // slightly short; stretch to fit

	rec := trace.New()
	zero := sim.ZeroSwitchCosts()
	d := core.New(core.Config{SwitchCosts: &zero, Observer: rec})

	pl, err := NewPhaseLock(ext, extPeriod, nominal)
	if err != nil {
		t.Fatal(err)
	}

	var id task.ID
	var maxErr ticks.Ticks
	starts := 0
	body := task.BodyFunc(func(ctx task.RunContext) task.RunResult {
		if ctx.NewPeriod && starts > 0 {
			// Measure how far this period start is from a boundary.
			e := pl.PhaseErrorAt(ctx.PeriodStart)
			if e > maxErr {
				maxErr = e
			}
		}
		if ctx.NewPeriod {
			starts++
			// Schedule the stretch for the period that just began.
			ins := pl.Insertion(ctx.PeriodStart)
			if err := d.InsertIdleCycles(id, ins); err != nil {
				t.Errorf("InsertIdleCycles: %v", err)
			}
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
		Name: "display",
		List: task.SingleLevel(nominal, 2*ms, "Refresh"),
		Body: body,
	})
	if err != nil {
		t.Fatal(err)
	}
	other, err := d.RequestAdmittance(&task.Task{
		Name: "worker",
		List: task.SingleLevel(10*ms, 3*ms, "W"),
		Body: task.PeriodicWork(3 * ms),
	})
	if err != nil {
		t.Fatal(err)
	}

	d.Run(10 * ticks.PerSecond)

	if starts < 900 {
		t.Errorf("only %d display periods in 10s", starts)
	}
	// Without compensation, +120ppm would accumulate ~32ms of phase
	// error over 10s; locked, every start stays within one nominal
	// shortfall (500 ticks ≈ 18.5us) plus rounding.
	if maxErr > 600 {
		t.Errorf("max phase error = %v ticks, want <= 600 (~22us)", maxErr)
	}
	ost, _ := d.Stats(other)
	if ost.Misses != 0 {
		t.Errorf("other task missed %d deadlines during phase locking", ost.Misses)
	}
	if rec.MissCount() != 0 {
		t.Errorf("%d misses recorded", rec.MissCount())
	}
}
