package baseline

import (
	"testing"

	"repro/internal/sim"
	"repro/internal/task"
	"repro/internal/telemetry"
	"repro/internal/ticks"
)

// pickerKinds are the schedulers that run on loop.runUntil.
var pickerKinds = []string{"fairshare", "lottery", "stride", "cfs", "reserves", "notifier"}

// sliceSystem builds kind's scheduler over eight tasks with live
// telemetry counters — a hog that never yields and seven periodic
// workers of 10 % each, periods 5–26 ms — and runs it past its start-up
// transient, so that what is left is the steady-state slice: roll,
// next boundary, pick, body, spend, charge.
func sliceSystem(tb testing.TB, kind string) (*sim.Kernel, func(ticks.Ticks)) {
	k := kernel()
	tel := &telemetry.Set{Registry: telemetry.NewRegistry()}
	k.EnableTelemetry(tel.Reg())
	var c *loop
	var run func(ticks.Ticks)
	var add func(name string, period ticks.Ticks, weight int64, body task.Body)
	switch kind {
	case "fairshare":
		s := NewFairShare(k, ms)
		c, run, add = &s.loop, s.RunUntil, s.Add
	case "lottery":
		s := NewLottery(k, ms, 1)
		c, run, add = &s.loop, s.RunUntil, s.Add
	case "stride":
		s := NewStride(k, ms)
		c, run, add = &s.loop, s.RunUntil, s.Add
	case "cfs":
		s := NewCFS(k, ms)
		c, run, add = &s.loop, s.RunUntil, s.Add
	case "reserves":
		s := NewReserves(k)
		c, run = &s.loop, s.RunUntil
		add = func(n string, pd ticks.Ticks, _ int64, b task.Body) {
			if err := s.Reserve(n, pd, pd/10, b); err != nil {
				tb.Fatal(err)
			}
		}
	case "notifier":
		s := NewNotifier(k, 0)
		c, run = &s.loop, s.RunUntil
		add = func(n string, pd ticks.Ticks, _ int64, _ task.Body) { s.Add(n, pd, []ticks.Ticks{pd / 10, pd / 20}) }
	default:
		tb.Fatalf("unknown picker %q", kind)
	}
	c.Instrument(tel)
	names := []string{"hog", "w1", "w2", "w3", "w4", "w5", "w6", "w7"}
	for i, n := range names {
		pd := ticks.Ticks(5+3*i) * ms
		body := task.PeriodicWork(pd / 10)
		if i == 0 {
			body = task.Busy()
		}
		add(n, pd, int64(i%3+1), body)
	}
	run(100 * ms)
	return k, run
}

// BenchmarkComparatorSlice measures one steady-state slice of the
// comparator loop under FairShare, the SMART-like comparator of §3.4:
// the hog keeps the CPU busy, so every
// 1 ms step is one slice, or two where a period boundary cuts it.
// Steady state must be 0 allocs/op — TestComparatorSliceAllocFree pins
// it for every picker.
func BenchmarkComparatorSlice(b *testing.B) {
	k, run := sliceSystem(b, "fairshare")
	limit := k.Now()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		limit += ms
		run(limit)
	}
}

func TestComparatorSliceAllocFree(t *testing.T) {
	for _, kind := range pickerKinds {
		k, run := sliceSystem(t, kind)
		limit := k.Now()
		busy := k.Stats().BusyTicks
		allocs := testing.AllocsPerRun(100, func() {
			limit += 10 * ms
			run(limit)
		})
		if allocs != 0 {
			t.Errorf("%s: steady-state slices = %v allocs/op, want 0", kind, allocs)
		}
		if k.Stats().BusyTicks == busy {
			t.Errorf("%s: no slice ran: the measurement measured nothing", kind)
		}
	}
}
