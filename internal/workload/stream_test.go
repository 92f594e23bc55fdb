package workload

import (
	"testing"

	"repro/internal/core"
	"repro/internal/task"
	"repro/internal/ticks"
)

func TestStreamedMPEGBalanced(t *testing.T) {
	// Arrivals at exactly 30fps, decoder granted one frame per
	// period: after warm-up every frame decodes, no overruns.
	d := core.New(core.Config{SwitchCosts: zeroCosts()})
	ts := NewTransportStream(d, 900_000, 4)
	dec := NewStreamedMPEG(ts)
	id, err := d.RequestAdmittance(dec.Task())
	if err != nil {
		t.Fatal(err)
	}
	ts.Start(d, id)
	d.Run(2 * ticks.PerSecond)
	ss := ts.Stats()
	ds := dec.Stats()
	if ss.Overruns != 0 {
		t.Errorf("overruns = %d with a matched decoder", ss.Overruns)
	}
	if ds.Decoded < ss.Arrived-ts.Buffered()-1 {
		t.Errorf("decoded %d of %d arrived (%d buffered)", ds.Decoded, ss.Arrived, ts.Buffered())
	}
	if ds.Ruined != 0 {
		t.Errorf("ruined = %d", ds.Ruined)
	}
	// The decoder blocks between frames (arrival-paced), but that
	// starvation is benign: it never misses an audit.
	st, _ := d.Stats(id)
	if st.Misses != 0 {
		t.Errorf("misses = %d; blocking on input must not be audited as a miss", st.Misses)
	}
}

func TestStreamedMPEGSlowSourceStarves(t *testing.T) {
	// A source at ~25fps under a 30fps decoder: the decoder starves
	// regularly, blocking instead of busy-waiting.
	d := core.New(core.Config{SwitchCosts: zeroCosts()})
	ts := NewTransportStream(d, 1_080_000, 4) // 25 fps
	dec := NewStreamedMPEG(ts)
	id, err := d.RequestAdmittance(dec.Task())
	if err != nil {
		t.Fatal(err)
	}
	ts.Start(d, id)
	d.Run(2 * ticks.PerSecond)
	if dec.Stats().Starved == 0 {
		t.Error("decoder never starved under a slow source")
	}
	if got := dec.Stats().Decoded; got < 45 {
		t.Errorf("decoded %d, want ~49 (every arriving frame)", got)
	}
	if ts.Stats().Overruns != 0 {
		t.Errorf("overruns = %d with a slow source", ts.Stats().Overruns)
	}
}

func TestStreamedMPEGStarvedDecoderFreesCPU(t *testing.T) {
	// While the decoder blocks on input, its reserved CPU flows to an
	// overtime requester — the §3.2 second principle end-to-end.
	d := core.New(core.Config{SwitchCosts: zeroCosts()})
	ts := NewTransportStream(d, 1_800_000, 4) // 15 fps: decoder half idle
	dec := NewStreamedMPEG(ts)
	id, err := d.RequestAdmittance(dec.Task())
	if err != nil {
		t.Fatal(err)
	}
	ts.Start(d, id)
	soak, err := d.RequestAdmittance(&task.Task{
		Name: "soak", List: task.SingleLevel(10*ms, 1*ms, "S"), Body: task.Busy(),
	})
	if err != nil {
		t.Fatal(err)
	}
	d.Run(ticks.PerSecond)
	st, _ := d.Stats(soak)
	// The soak holds 10% grants; everything else (decoder's unused
	// ~83%) arrives as overtime.
	if st.OvertimeTicks < 500*ms {
		t.Errorf("soak overtime = %v; starved decoder's CPU was not redistributed", st.OvertimeTicks)
	}
}

func TestStreamOverrunsWhenDecoderShed(t *testing.T) {
	// Force the decoder into starvation of CPU (not input): a tiny
	// buffer with a fast source overruns at the door.
	d := core.New(core.Config{SwitchCosts: zeroCosts()})
	ts := NewTransportStream(d, 450_000, 2) // 60 fps into a 30fps decoder
	dec := NewStreamedMPEG(ts)
	id, err := d.RequestAdmittance(dec.Task())
	if err != nil {
		t.Fatal(err)
	}
	ts.Start(d, id)
	d.Run(ticks.PerSecond)
	if ts.Stats().Overruns == 0 {
		t.Error("no overruns with a 2x-rate source and capacity-2 buffer")
	}
	st, _ := d.Stats(id)
	if st.Misses != 0 {
		t.Errorf("decoder missed %d deadlines; input overrun must not break scheduling", st.Misses)
	}
}

// pump is a Timeline that holds the one pending callback for the test
// to fire by hand.
type pump struct {
	now  ticks.Ticks
	next func()
}

func (p *pump) Now() ticks.Ticks             { return p.now }
func (p *pump) At(at ticks.Ticks, fn func()) { p.now, p.next = at, fn }

// TestTransportStreamSteadyStateAllocFree: once the buffer has been
// full, delivering a frame and popping it allocate nothing — the
// callback is bound once in Start, and pop keeps the buffer on its
// array however deep the queue runs.
func TestTransportStreamSteadyStateAllocFree(t *testing.T) {
	tl := new(pump)
	ts := NewTransportStream(tl, 900_000, 4)
	ts.Start(nil, task.NoID)
	for i := 0; i < 4; i++ {
		tl.next()
	}
	for ts.Buffered() > 0 {
		ts.pop()
	}
	var got FrameType
	allocs := testing.AllocsPerRun(200, func() {
		tl.next()
		tl.next()
		got, _ = ts.pop()
		tl.next()
		ts.pop()
		ts.pop()
	})
	if allocs != 0 {
		t.Errorf("%.1f allocations per three delivered frames, want 0", allocs)
	}
	if ts.Stats().Overruns != 0 || ts.Buffered() != 0 {
		t.Errorf("overruns=%d buffered=%d, want an empty, never-full buffer", ts.Stats().Overruns, ts.Buffered())
	}
	// 4 + 201×3 frames in, in GOP order: the last run popped frames
	// 604..606, got being the first of them.
	if want := FrameType(DefaultGOP[604%len(DefaultGOP)]); got != want {
		t.Errorf("frame 604 popped as %v, want %v: pop lost the GOP order", got, want)
	}
}
