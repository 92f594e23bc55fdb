package streamer

import (
	"testing"

	"repro/internal/core"
	"repro/internal/sim"
	"repro/internal/task"
	"repro/internal/ticks"
)

func kernel() *sim.Kernel {
	return sim.NewKernel(sim.Config{Costs: sim.ZeroSwitchCosts()})
}

func TestTransferTiming(t *testing.T) {
	k := kernel()
	e := New(k, 400)
	c, err := e.Open("video", 100) // 100 MB/s
	if err != nil {
		t.Fatal(err)
	}
	var doneAt ticks.Ticks
	// 1 MB at 100 MB/s = 10ms = 270,000 ticks.
	if err := c.Submit(1_000_000, func() { doneAt = k.Now() }); err != nil {
		t.Fatal(err)
	}
	k.RunUntil(ticks.PerSecond)
	if doneAt != 270_000 {
		t.Errorf("1MB at 100MB/s completed at %v, want 270000 ticks (10ms)", doneAt)
	}
	st := c.Stats()
	if st.Transfers != 1 || st.Bytes != 1_000_000 || st.BusyTicks != 270_000 {
		t.Errorf("stats = %+v", st)
	}
}

func TestChannelFIFO(t *testing.T) {
	k := kernel()
	e := New(k, 100)
	c, _ := e.Open("x", 100)
	var order []int
	for i := 0; i < 3; i++ {
		i := i
		_ = c.Submit(500_000, func() { order = append(order, i) })
	}
	if c.QueueLen() != 3 {
		t.Errorf("queue = %d, want 3", c.QueueLen())
	}
	k.RunUntil(ticks.PerSecond)
	if len(order) != 3 || order[0] != 0 || order[2] != 2 {
		t.Errorf("completion order = %v", order)
	}
}

func TestBandwidthReservation(t *testing.T) {
	k := kernel()
	e := New(k, 400)
	a, err := e.Open("a", 300)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.Open("b", 200); err == nil {
		t.Error("500 of 400 MB/s accepted")
	}
	if _, err := e.Open("b", 100); err != nil {
		t.Errorf("exact fit refused: %v", err)
	}
	if _, err := e.Open("a", 1); err == nil {
		t.Error("duplicate channel name accepted")
	}
	total, alloc := e.Capacity()
	if total != 400 || alloc != 400 {
		t.Errorf("capacity = %d/%d", alloc, total)
	}
	a.Close()
	if _, alloc := e.Capacity(); alloc != 100 {
		t.Errorf("allocation after close = %d, want 100", alloc)
	}
	if err := a.Submit(1, nil); err == nil {
		t.Error("submit on closed channel accepted")
	}
}

func TestSetRateReRatesInFlight(t *testing.T) {
	k := kernel()
	e := New(k, 400)
	c, _ := e.Open("v", 100)
	var doneAt ticks.Ticks
	_ = c.Submit(1_000_000, func() { doneAt = k.Now() }) // 10ms at 100MB/s
	// Halfway through, the grant is shed to 50 MB/s: the remaining
	// 500KB now take 10ms instead of 5ms. Total: 5 + 10 = 15ms.
	k.At(135_000, func() {
		if err := c.SetRate(50); err != nil {
			t.Errorf("SetRate: %v", err)
		}
	})
	k.RunUntil(ticks.PerSecond)
	want := ticks.Ticks(405_000) // 15ms
	if doneAt < want-30 || doneAt > want+30 {
		t.Errorf("re-rated transfer completed at %v, want ~%v", doneAt, want)
	}
	// Raising beyond capacity fails.
	if err := c.SetRate(1000); err == nil {
		t.Error("over-capacity re-rate accepted")
	}
}

func TestChannelNameAndEdges(t *testing.T) {
	k := kernel()
	e := New(k, 100)
	c, _ := e.Open("v", 50)
	if c.Name() != "v" {
		t.Errorf("Name = %q", c.Name())
	}
	if err := c.Submit(0, nil); err == nil {
		t.Error("zero-byte transfer accepted")
	}
	// Tiny transfers still take at least one tick.
	done := false
	_ = c.Submit(1, func() { done = true })
	k.RunUntil(10)
	if !done {
		t.Error("1-byte transfer never completed")
	}
	// Closing with an empty queue, twice, is safe.
	c.Close()
	c.Close()
	if err := c.SetRate(10); err == nil {
		t.Error("SetRate on closed channel accepted")
	}
	// SetRate with an empty queue just re-rates.
	c2, _ := e.Open("w", 50)
	if err := c2.SetRate(25); err != nil {
		t.Errorf("empty-queue SetRate: %v", err)
	}
	if err := c2.SetRate(0); err == nil {
		t.Error("zero rate accepted")
	}
	// Close drops queued transfers without callbacks.
	var fired bool
	_ = c2.Submit(1_000_000, func() { fired = true })
	c2.Close()
	k.RunUntil(ticks.PerSecond)
	if fired {
		t.Error("closed channel fired a completion")
	}
	// New panics on non-positive capacity.
	defer func() {
		if recover() == nil {
			t.Error("New(k, 0) did not panic")
		}
	}()
	New(k, 0)
}

// TestStreamerFollowsGrants wires a channel's rate to a task's
// granted StreamerMBps: when the Policy Box sheds the task's level,
// the DMA slows accordingly — the full CPU+bandwidth grant pipeline.
func TestStreamerFollowsGrants(t *testing.T) {
	d := core.New(core.Config{})
	e := New(d.Kernel(), 400)

	list := task.ResourceList{
		{Period: 270_000, CPU: 81_000, Fn: "StreamHQ", StreamerMBps: 200},
		{Period: 270_000, CPU: 27_000, Fn: "StreamLQ", StreamerMBps: 50},
	}
	var ch *Channel
	id, err := d.RequestAdmittance(&task.Task{
		Name: "pipeline",
		List: list,
		Body: task.BodyFunc(func(ctx task.RunContext) task.RunResult {
			if ctx.NewPeriod || ctx.GrantChanged() {
				// The application re-rates its DMA channel to its
				// granted bandwidth at each level change.
				want := list[ctx.Level].StreamerMBps
				if ch != nil && ch.Rate() != want {
					if err := ch.SetRate(want); err != nil {
						t.Errorf("SetRate: %v", err)
					}
				}
			}
			return task.RunResult{Used: ctx.Span, Op: task.OpYield, Completed: true}
		}),
	})
	if err != nil {
		t.Fatal(err)
	}
	ch, err = e.Open("pipeline", 200)
	if err != nil {
		t.Fatal(err)
	}
	// A steady drip of 100KB transfers.
	var completed int
	var pump func()
	pump = func() {
		_ = ch.Submit(100_000, func() { completed++ })
		if d.Now() < 900*ticks.PerMillisecond {
			d.Kernel().After(10*ticks.PerMillisecond, pump)
		}
	}
	d.Kernel().At(0, pump)

	// At 300ms a CPU hog forces the pipeline to shed to LQ.
	d.At(300*ticks.PerMillisecond, func() {
		_, err := d.RequestAdmittance(&task.Task{
			Name: "hog", List: task.SingleLevel(270_000, 216_000, "H"), Body: task.Busy(),
		})
		if err != nil {
			t.Errorf("hog admission: %v", err)
		}
	})
	d.Run(ticks.PerSecond)

	if got := d.Grants().Of(id).Entry.Fn; got != "StreamLQ" {
		t.Fatalf("pipeline level = %s, want StreamLQ after the hog", got)
	}
	if ch.Rate() != 50 {
		t.Errorf("channel rate = %d, want 50 after shedding", ch.Rate())
	}
	if completed == 0 {
		t.Error("no transfers completed")
	}
	st, _ := d.Stats(id)
	if st.Misses != 0 {
		t.Errorf("pipeline missed %d deadlines", st.Misses)
	}
}
