package streamer

import (
	"fmt"
	"reflect"
	"slices"
	"testing"

	"repro/internal/sim"
	"repro/internal/telemetry"
	"repro/internal/ticks"
)

// TestSetRateEveryTickExact is the re-rate drift regression: progress
// used to be accounted as floor(elapsed*mbps/27) bytes while
// durations were ceiled, so a transfer re-rated N times finished up
// to N ticks late (at one re-rate per tick, 1MB at 100MB/s took
// ~333k ticks instead of 270k) and BusyTicks inflated to match. With
// exact byte·27 accounting the completion time stays within one tick
// of ideal no matter how often the rate "changes".
func TestSetRateEveryTickExact(t *testing.T) {
	k := kernel()
	e := New(k, 400)
	c, err := e.Open("v", 100)
	if err != nil {
		t.Fatal(err)
	}
	var doneAt ticks.Ticks
	done := false
	if err := c.Submit(1_000_000, func() { done, doneAt = true, k.Now() }); err != nil {
		t.Fatal(err)
	}
	var pester func()
	pester = func() {
		if done {
			return
		}
		if err := c.SetRate(100); err != nil {
			t.Fatalf("SetRate: %v", err)
		}
		k.After(1, pester)
	}
	k.After(1, pester)
	k.RunUntil(2 * ticks.PerSecond)

	const want = 270_000 // 1MB at 100MB/s = 10ms
	if !done {
		t.Fatal("transfer never completed")
	}
	if doneAt < want-1 || doneAt > want+1 {
		t.Errorf("re-rated-every-tick transfer completed at %v, want %v ±1", doneAt, want)
	}
	st := c.Stats()
	if st.BusyTicks < want-1 || st.BusyTicks > want+1 {
		t.Errorf("BusyTicks = %v, want %v ±1", st.BusyTicks, want)
	}
}

// TestCloseMidTransfer pins the Close contract: an in-flight
// transfer's onDone never fires but its busy time up to the close
// counts, the engine's allocation returns to its pre-open value, and
// Submit after Close errors.
func TestCloseMidTransfer(t *testing.T) {
	k := kernel()
	e := New(k, 400)
	if _, err := e.Open("other", 50); err != nil {
		t.Fatal(err)
	}
	_, preAlloc := e.Capacity()

	c, err := e.Open("v", 100)
	if err != nil {
		t.Fatal(err)
	}
	fired := false
	if err := c.Submit(1_000_000, func() { fired = true }); err != nil {
		t.Fatal(err)
	}
	// Close at 100k ticks, well inside the 270k-tick transfer.
	k.At(100_000, func() { c.Close() })
	k.RunUntil(ticks.PerSecond)

	if fired {
		t.Error("closed channel's in-flight onDone fired")
	}
	// The transfer moved data until the close, and that time counts.
	if st := c.Stats(); st.BusyTicks != 100_000 || st.Transfers != 0 {
		t.Errorf("stats after close = %+v, want 100000 busy ticks and no transfer", st)
	}
	if _, alloc := e.Capacity(); alloc != preAlloc {
		t.Errorf("allocated = %d after close, want pre-open %d", alloc, preAlloc)
	}
	if err := c.Submit(1, nil); err == nil {
		t.Error("Submit after Close accepted")
	}
}

// allocate runs a over demands into a fresh out.
func allocate(a Allocator, total int64, demands []Demand) []int64 {
	out := make([]int64, len(demands))
	a.Allocate(total, demands, out)
	return out
}

func TestMeteredAllocator(t *testing.T) {
	got := allocate(Metered{}, 300, []Demand{
		{Name: "a", MBps: 200}, {Name: "b", MBps: 150}, {Name: "c", MBps: 100},
	})
	// FCFS: a full, b the remainder, c starves.
	if want := []int64{200, 100, 0}; !reflect.DeepEqual(got, want) {
		t.Errorf("metered = %v, want %v", got, want)
	}
}

func TestMaxMinFairAllocator(t *testing.T) {
	cases := []struct {
		name    string
		total   int64
		demands []int64
		want    []int64
	}{
		{"underload grants demands", 400, []int64{100, 50, 30}, []int64{100, 50, 30}},
		{"equal split", 300, []int64{200, 200, 200}, []int64{100, 100, 100}},
		{"water-fill redistributes", 300, []int64{40, 200, 200}, []int64{40, 130, 130}},
		{"small demand fully met", 90, []int64{10, 100, 100}, []int64{10, 40, 40}},
		{"sub-share remainder in order", 10, []int64{4, 4, 4}, []int64{4, 3, 3}},
		{"fewer units than claimants", 2, []int64{5, 5, 5}, []int64{1, 1, 0}},
		{"zero demand ignored", 100, []int64{0, 60, 60}, []int64{0, 50, 50}},
	}
	for _, tc := range cases {
		ds := make([]Demand, len(tc.demands))
		for i, d := range tc.demands {
			ds[i] = Demand{MBps: d}
		}
		got := allocate(MaxMinFair{}, tc.total, ds)
		if !reflect.DeepEqual(got, tc.want) {
			t.Errorf("%s: maxmin(%d, %v) = %v, want %v", tc.name, tc.total, tc.demands, got, tc.want)
		}
		var sum int64
		for _, g := range got {
			sum += g
		}
		if sum > tc.total {
			t.Errorf("%s: allocated %d over capacity %d", tc.name, sum, tc.total)
		}
	}
}

func TestMaxThroughputAllocator(t *testing.T) {
	got := allocate(MaxThroughput{}, 300, []Demand{
		{Name: "low", MBps: 200, Quality: 1},
		{Name: "high", MBps: 250, Quality: 9},
		{Name: "mid", MBps: 100, Quality: 5},
	})
	// Quality order: high full (250), mid gets the remaining 50, low starves.
	if want := []int64{0, 250, 50}; !reflect.DeepEqual(got, want) {
		t.Errorf("maxthru = %v, want %v", got, want)
	}
}

// TestAllocatedStallAndResume: in policy-driven mode a channel can be
// granted zero (stalled); its in-flight transfer must make no
// progress and resume when a reallocation frees bandwidth.
func TestAllocatedStallAndResume(t *testing.T) {
	k := kernel()
	e := NewAllocated(k, 100, Metered{})
	a, err := e.Open("a", 100)
	if err != nil {
		t.Fatal(err)
	}
	b, err := e.Open("b", 50)
	if err != nil {
		t.Fatalf("policy-mode Open must not capacity-fail: %v", err)
	}
	if a.Rate() != 100 || b.Rate() != 0 {
		t.Fatalf("rates = %d/%d, want 100/0 under metered FCFS", a.Rate(), b.Rate())
	}
	var doneAt ticks.Ticks
	if err := b.Submit(500_000, func() { doneAt = k.Now() }); err != nil {
		t.Fatal(err)
	}
	_ = a.Submit(1_000_000, nil) // keeps a busy; not the point
	k.At(100_000, func() { a.Close() })
	k.RunUntil(2 * ticks.PerSecond)
	if b.Rate() != 50 {
		t.Errorf("b rate after close = %d, want its 50 MB/s demand", b.Rate())
	}
	// b stalls until 100k, then 500KB at 50MB/s = 10ms = 270k ticks.
	const want = 100_000 + 270_000
	if doneAt != want {
		t.Errorf("stalled transfer completed at %v, want %v", doneAt, want)
	}
}

// TestAllocatedMaxMinReallocates: grants track demand changes and
// closures under max-min fairness.
func TestAllocatedMaxMinReallocates(t *testing.T) {
	k := kernel()
	e := NewAllocated(k, 300, MaxMinFair{})
	a, _ := e.Open("a", 200)
	b, _ := e.Open("b", 150)
	c, _ := e.Open("c", 100)
	if a.Rate() != 100 || b.Rate() != 100 || c.Rate() != 100 {
		t.Fatalf("rates = %d/%d/%d, want 100 each", a.Rate(), b.Rate(), c.Rate())
	}
	c.Close()
	if a.Rate() != 150 || b.Rate() != 150 {
		t.Errorf("after close rates = %d/%d, want 150/150", a.Rate(), b.Rate())
	}
	if err := b.SetRate(60); err != nil {
		t.Fatal(err)
	}
	if a.Rate() != 200 || b.Rate() != 60 {
		t.Errorf("after demand drop rates = %d/%d, want 200/60", a.Rate(), b.Rate())
	}
	if _, alloc := e.Capacity(); alloc != 260 {
		t.Errorf("allocated = %d, want 260", alloc)
	}
}

// TestStreamerTelemetry: the engine's instruments record transfers,
// bytes and reallocations.
func TestStreamerTelemetry(t *testing.T) {
	k := kernel()
	set := &telemetry.Set{Registry: telemetry.NewRegistry()}
	e := NewAllocated(k, 300, MaxMinFair{})
	e.Instrument(set)
	c, _ := e.Open("a", 100)
	_ = c.Submit(1_000_000, nil)
	k.RunUntil(ticks.PerSecond)
	counters := make(map[string]int64)
	for _, c := range set.Reg().Snapshot().Counters {
		counters[c.Name] = c.Value
	}
	if got := counters["streamer.transfers"]; got != 1 {
		t.Errorf("streamer.transfers = %d, want 1", got)
	}
	if got := counters["streamer.bytes"]; got != 1_000_000 {
		t.Errorf("streamer.bytes = %d, want 1e6", got)
	}
	if got := counters["streamer.reallocations"]; got == 0 {
		t.Error("no reallocations recorded")
	}
}

// TestAllocatorProperties holds each allocator to its definition over
// random demand vectors, zero demands and quality ties included: the
// grants are feasible and work-conserving, each policy's own order
// holds, the reference allocator agrees, and a second call on a dirty
// out gives the same answer.
func TestAllocatorProperties(t *testing.T) {
	rng := sim.NewRNG(0x5eed)
	refs := map[string]refAllocator{"metered": refMetered{}, "maxmin": refMaxMinFair{}, "maxthru": refMaxThroughput{}}
	for trial := 0; trial < 2000; trial++ {
		n := 1 + rng.Intn(6)
		total := int64(rng.Intn(400))
		ds := make([]Demand, n)
		for i := range ds {
			// A third of the demands are small, so ties, zeros and
			// full satisfaction all occur.
			d := int64(rng.Intn(250))
			if rng.Intn(3) == 0 {
				d = int64(rng.Intn(4))
			}
			ds[i] = Demand{MBps: d, Quality: int64(rng.Intn(3))}
		}
		for _, p := range allocPairs {
			a := p.alloc
			got := allocate(a, total, ds)
			where := func() string { return fmt.Sprintf("%s(%d, %v) = %v", a.Name(), total, ds, got) }

			var sum int64
			unmet := false
			for i, g := range got {
				if g < 0 || g > ds[i].MBps {
					t.Fatalf("%s: grant %d outside [0, %d]", where(), g, ds[i].MBps)
				}
				sum += g
				unmet = unmet || g < ds[i].MBps
			}
			if sum > total || (unmet && sum != total) {
				t.Fatalf("%s: grants sum to %d of %d with a demand unmet: %v", where(), sum, total, unmet)
			}

			switch a.(type) {
			case Metered:
				left := total
				for i, g := range got {
					if want := min(ds[i].MBps, left); g != want {
						t.Fatalf("%s: channel %d got %d, first come first served gives %d", where(), i, g, want)
					}
					left -= g
				}
			case MaxMinFair:
				for i, g := range got {
					if g == ds[i].MBps {
						continue
					}
					for j, o := range got {
						if g < o-1 {
							t.Fatalf("%s: channel %d short of its demand holds %d, under channel %d's %d minus one", where(), i, g, j, o)
						}
					}
				}
			case MaxThroughput:
				for j, g := range got {
					if g == 0 {
						continue
					}
					for i := range got {
						ahead := ds[i].Quality > ds[j].Quality || (ds[i].Quality == ds[j].Quality && i < j)
						if ahead && got[i] != ds[i].MBps {
							t.Fatalf("%s: channel %d served while channel %d ahead of it is short", where(), j, i)
						}
					}
				}
			}

			if want := refs[a.Name()].Allocate(total, ds); !slices.Equal(got, want) {
				t.Fatalf("%s, reference allocator gives %v", where(), want)
			}
			dirty := make([]int64, n)
			for i := range dirty {
				dirty[i] = int64(rng.Intn(1000)) - 500
			}
			if a.Allocate(total, ds, dirty); !slices.Equal(dirty, got) {
				t.Fatalf("%s, but %v on a dirty out", where(), dirty)
			}
		}
	}
}
