package streamer

import (
	"testing"

	"repro/internal/telemetry"
	"repro/internal/ticks"
)

// frameBytes is the benchmarks' frame: 100 KB, 1 ms at 100 MB/s.
const frameBytes = 100_000

// transferRig is one instrumented metered channel at 100 MB/s with a
// done callback bound once, as a producer binds it.
type transferRig struct {
	e     *Engine
	c     *Channel
	done  func()
	count int
}

func newTransferRig(tb testing.TB) *transferRig {
	r := &transferRig{e: New(kernel(), 400)}
	r.e.Instrument(&telemetry.Set{Registry: telemetry.NewRegistry()})
	c, err := r.e.Open("video", 100)
	if err != nil {
		tb.Fatal(err)
	}
	r.c, r.done = c, r.frameDone
	return r
}

func (r *transferRig) frameDone() { r.count++ }

// frame submits one frame and runs the kernel to its completion.
func (r *transferRig) frame() {
	_ = r.c.Submit(frameBytes, r.done)
	r.e.k.RunUntil(r.e.k.Now() + ticks.PerMillisecond)
}

// reallocRig is a MaxMinFair engine whose first channel has a transfer
// in flight that never lands, so every demand change re-rates it.
type reallocRig struct {
	a    *Channel
	flip bool
}

func newReallocRig(tb testing.TB) *reallocRig {
	e := NewAllocated(kernel(), 300, MaxMinFair{})
	e.Instrument(&telemetry.Set{Registry: telemetry.NewRegistry()})
	a, _ := e.OpenQuality("video", 200, 3)
	_, _ = e.OpenQuality("preview", 120, 2)
	_, _ = e.OpenQuality("archive", 100, 1)
	if err := a.Submit(1<<40, nil); err != nil {
		tb.Fatal(err)
	}
	return &reallocRig{a: a}
}

// change toggles the first channel's demand between 200 and 80 MB/s.
func (r *reallocRig) change() {
	r.flip = !r.flip
	want := int64(200)
	if r.flip {
		want = 80
	}
	_ = r.a.SetRate(want)
}

// BenchmarkStreamerTransfer is one DMA frame submitted and completed
// on a warm channel: the queue push, the typed completion event and
// the onDone call.
func BenchmarkStreamerTransfer(b *testing.B) {
	r := newTransferRig(b)
	r.frame()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r.frame()
	}
	if r.count != b.N+1 {
		b.Fatalf("%d frames completed, want %d", r.count, b.N+1)
	}
}

// BenchmarkStreamerReallocate is one demand change under MaxMinFair:
// the allocator over three channels in the engine's scratch, and the
// in-flight transfer paused and re-armed at its new rate.
func BenchmarkStreamerReallocate(b *testing.B) {
	r := newReallocRig(b)
	r.change()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r.change()
	}
}

// TestStreamerSteadyStateAllocFree pins both benchmarks' bodies at
// zero allocations once warm.
func TestStreamerSteadyStateAllocFree(t *testing.T) {
	tr := newTransferRig(t)
	tr.frame()
	if allocs := testing.AllocsPerRun(100, tr.frame); allocs != 0 {
		t.Errorf("a frame on a warm channel allocates %v times, want 0", allocs)
	}
	if tr.count != 102 {
		t.Errorf("%d frames completed, want 102: the measurement measured nothing", tr.count)
	}
	rr := newReallocRig(t)
	rr.change()
	if allocs := testing.AllocsPerRun(100, rr.change); allocs != 0 {
		t.Errorf("a reallocation allocates %v times, want 0", allocs)
	}
	if got := rr.a.Rate(); got != 100 && got != 80 {
		t.Errorf("re-rated channel runs at %d MB/s, want its max-min share, 100 or 80 MB/s", got)
	}
}
