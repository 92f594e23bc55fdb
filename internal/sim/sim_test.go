package sim

import (
	"sort"
	"testing"
	"testing/quick"

	"repro/internal/ticks"
)

func TestEventQueueOrdering(t *testing.T) {
	var q EventQueue
	var got []int
	q.Push(30, func() { got = append(got, 3) })
	q.Push(10, func() { got = append(got, 1) })
	q.Push(20, func() { got = append(got, 2) })
	for q.Len() > 0 {
		q.Pop().Fn()
	}
	if len(got) != 3 || got[0] != 1 || got[1] != 2 || got[2] != 3 {
		t.Errorf("events fired in order %v, want [1 2 3]", got)
	}
}

func TestEventQueueFIFOAtSameInstant(t *testing.T) {
	var q EventQueue
	var got []int
	for i := 0; i < 10; i++ {
		i := i
		q.Push(100, func() { got = append(got, i) })
	}
	for q.Len() > 0 {
		q.Pop().Fn()
	}
	for i, v := range got {
		if v != i {
			t.Fatalf("same-instant events fired as %v, want FIFO", got)
		}
	}
}

func TestEventQueueCancel(t *testing.T) {
	var q EventQueue
	fired := false
	e := q.Push(10, func() { fired = true })
	q.Cancel(e)
	if q.Len() != 0 {
		t.Error("cancelled event still queued")
	}
	q.Cancel(e) // double-cancel is a no-op
	if q.Pop() != nil {
		t.Error("Pop on empty queue should return nil")
	}
	if fired {
		t.Error("cancelled event fired")
	}
}

func TestEventQueueCancelMiddle(t *testing.T) {
	var q EventQueue
	var got []int
	q.Push(1, func() { got = append(got, 1) })
	e := q.Push(2, func() { got = append(got, 2) })
	q.Push(3, func() { got = append(got, 3) })
	q.Cancel(e)
	for q.Len() > 0 {
		q.Pop().Fn()
	}
	if len(got) != 2 || got[0] != 1 || got[1] != 3 {
		t.Errorf("after cancel, fired %v, want [1 3]", got)
	}
}

func TestEventQueueRandomOrderProperty(t *testing.T) {
	f := func(times []uint16) bool {
		var q EventQueue
		var fired []ticks.Ticks
		for _, tm := range times {
			at := ticks.Ticks(tm)
			q.Push(at, func() { fired = append(fired, at) })
		}
		for q.Len() > 0 {
			q.Pop().Fn()
		}
		return sort.SliceIsSorted(fired, func(i, j int) bool { return fired[i] < fired[j] })
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestKernelClockAdvance(t *testing.T) {
	k := NewKernel(Config{})
	if k.Now() != 0 {
		t.Error("kernel should start at time 0")
	}
	k.advance(100)
	if k.Now() != 100 {
		t.Errorf("Now = %v after Advance(100)", k.Now())
	}
}

func TestKernelAdvancePastEventPanics(t *testing.T) {
	k := NewKernel(Config{})
	k.At(50, func() {})
	defer func() {
		if recover() == nil {
			t.Error("Advance past a pending event did not panic")
		}
	}()
	k.advance(100)
}

func TestKernelPastEventPanics(t *testing.T) {
	k := NewKernel(Config{})
	k.advance(100)
	defer func() {
		if recover() == nil {
			t.Error("scheduling an event in the past did not panic")
		}
	}()
	k.At(50, func() {})
}

func TestKernelRunUntil(t *testing.T) {
	k := NewKernel(Config{})
	var fired []ticks.Ticks
	k.At(10, func() { fired = append(fired, k.Now()) })
	k.At(20, func() { fired = append(fired, k.Now()) })
	k.At(300, func() { fired = append(fired, k.Now()) })
	k.RunUntil(100)
	if len(fired) != 2 || fired[0] != 10 || fired[1] != 20 {
		t.Errorf("fired %v, want [10 20]", fired)
	}
	if k.Now() != 100 {
		t.Errorf("clock = %v after RunUntil(100), want 100", k.Now())
	}
	k.RunUntil(1000)
	if len(fired) != 3 || fired[2] != 300 {
		t.Errorf("fired %v, want third at 300", fired)
	}
}

func TestKernelEventCanScheduleEvents(t *testing.T) {
	k := NewKernel(Config{})
	count := 0
	var chain func()
	chain = func() {
		count++
		if count < 5 {
			k.After(10, chain)
		}
	}
	k.At(0, chain)
	k.RunUntil(1000)
	if count != 5 {
		t.Errorf("chained events ran %d times, want 5", count)
	}
}

func TestRNGDeterminism(t *testing.T) {
	a, b := NewRNG(42), NewRNG(42)
	for i := 0; i < 100; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatal("same-seed RNGs diverged")
		}
	}
	c := NewRNG(43)
	same := true
	a2 := NewRNG(42)
	for i := 0; i < 10; i++ {
		if a2.Uint64() != c.Uint64() {
			same = false
		}
	}
	if same {
		t.Error("different seeds produced identical streams")
	}
}

func TestRNGFloat64Range(t *testing.T) {
	r := NewRNG(1)
	for i := 0; i < 10000; i++ {
		f := r.Float64()
		if f < 0 || f >= 1 {
			t.Fatalf("Float64 out of range: %v", f)
		}
	}
}

func TestPaperSwitchCostCalibration(t *testing.T) {
	// Sampling many costs must land near the paper's min/median/mean.
	sc := PaperSwitchCosts()
	rng := NewRNG(7)
	check := func(kind SwitchKind, d CostDist) {
		const n = 200_000
		us := make([]float64, n)
		var sum float64
		for i := range us {
			v := sc.Sample(kind, rng).MicrosecondsF()
			us[i] = v
			sum += v
			if v < d.Min-0.51 { // tick rounding is ~0.04us; generous
				t.Fatalf("%v cost %v below min %v", kind, v, d.Min)
			}
		}
		sort.Float64s(us)
		med := us[n/2]
		mean := sum / n
		if med < d.Median*0.97 || med > d.Median*1.03 {
			t.Errorf("%v median = %.2f, want %.1f±3%%", kind, med, d.Median)
		}
		if mean < d.Mean*0.97 || mean > d.Mean*1.03 {
			t.Errorf("%v mean = %.2f, want %.1f±3%%", kind, mean, d.Mean)
		}
	}
	check(Voluntary, sc.Vol)
	check(Involuntary, sc.Invol)
}

func TestDeterministicSwitchCosts(t *testing.T) {
	sc := PaperSwitchCosts()
	sc.Deterministic = true
	rng := NewRNG(1)
	v := sc.Sample(Voluntary, rng)
	if v.MicrosecondsF() < 20.6 || v.MicrosecondsF() > 20.8 {
		t.Errorf("deterministic voluntary cost = %vus, want 20.7", v.MicrosecondsF())
	}
	i := sc.Sample(Involuntary, rng)
	if i.MicrosecondsF() < 34.9 || i.MicrosecondsF() > 35.1 {
		t.Errorf("deterministic involuntary cost = %vus, want 35.0", i.MicrosecondsF())
	}
}

func TestZeroSwitchCosts(t *testing.T) {
	sc := ZeroSwitchCosts()
	rng := NewRNG(1)
	if c := sc.Sample(Voluntary, rng); c != 0 {
		t.Errorf("zero cost model charged %v", c)
	}
}

func TestChargeSwitchAccounting(t *testing.T) {
	k := NewKernel(Config{Costs: PaperSwitchCosts()})
	c1 := k.ChargeSwitch(Voluntary)
	c2 := k.ChargeSwitch(Involuntary)
	st := k.Stats()
	if st.VolSwitches != 1 || st.InvolSwitches != 1 {
		t.Errorf("switch counts = %d/%d, want 1/1", st.VolSwitches, st.InvolSwitches)
	}
	if st.SwitchTicks != c1+c2 {
		t.Errorf("SwitchTicks = %v, want %v", st.SwitchTicks, c1+c2)
	}
	if k.Now() != c1+c2 {
		t.Errorf("clock = %v, want %v (advanced by switch costs)", k.Now(), c1+c2)
	}
}

func TestStatsFractions(t *testing.T) {
	s := Stats{Now: 1000, SwitchTicks: 7, BusyTicks: 900}
	if f := s.SwitchOverheadFraction(); f != 0.007 {
		t.Errorf("overhead fraction = %v, want 0.007", f)
	}
	if u := s.Utilization(); u != 0.9 {
		t.Errorf("utilization = %v, want 0.9", u)
	}
	var zero Stats
	if zero.SwitchOverheadFraction() != 0 || zero.Utilization() != 0 {
		t.Error("zero stats should report zero fractions")
	}
}

func TestIntnPanicsAndBounds(t *testing.T) {
	r := NewRNG(1)
	for i := 0; i < 1000; i++ {
		if v := r.Intn(7); v < 0 || v >= 7 {
			t.Fatalf("Intn(7) = %d", v)
		}
	}
	defer func() {
		if recover() == nil {
			t.Error("Intn(0) did not panic")
		}
	}()
	r.Intn(0)
}
