package sim

import (
	"testing"

	"repro/internal/telemetry"
	"repro/internal/ticks"
)

// rearmHandler re-arms itself on every delivery — the steady-state
// shape of the scheduler's period timers, where one pooled event per
// timer cycles between the heap and the free list forever.
type rearmHandler struct {
	k     *Kernel
	fired int64
}

func (h *rearmHandler) HandleEvent(op, id int32, arg ticks.Ticks) {
	h.fired++
	h.k.AfterCall(arg, h, op, id, arg)
}

// stepWarmup dispatches enough events to reach pool steady state: the
// first few AfterCall invocations grow the heap and free list to
// their final size, after which Step must not allocate at all.
const stepWarmup = 64

func newSteppingKernel() (*Kernel, *rearmHandler) {
	k := NewKernel(Config{Costs: ZeroSwitchCosts()})
	// Counters on: the 0 allocs/op pin below must hold with live
	// telemetry handles, not just the nil no-op ones (spans stay off —
	// the span log appends, which amortizes but is not alloc-free).
	k.EnableTelemetry(telemetry.NewRegistry())
	h := &rearmHandler{k: k}
	k.AfterCall(1, h, 0, 0, 1)
	for i := 0; i < stepWarmup; i++ {
		if !k.Step() {
			panic("sim: warmup ran out of events")
		}
	}
	return k, h
}

// BenchmarkKernelStep measures the pooled event kernel's core cycle:
// pop the earliest event, release it to the pool, run the typed
// callback, which re-arms the same event. Steady state must be
// 0 allocs/op — TestKernelStepSteadyStateIsAllocFree enforces it.
func BenchmarkKernelStep(b *testing.B) {
	k, _ := newSteppingKernel()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if !k.Step() {
			b.Fatal("kernel had no event to step")
		}
	}
}

func TestKernelStepSteadyStateIsAllocFree(t *testing.T) {
	k, h := newSteppingKernel()
	before := h.fired
	allocs := testing.AllocsPerRun(1000, func() {
		if !k.Step() {
			t.Fatal("kernel had no event to step")
		}
	})
	if h.fired == before {
		t.Fatal("handler never fired: the measurement measured nothing")
	}
	if allocs != 0 {
		t.Fatalf("Kernel.Step steady state = %v allocs/op, want 0", allocs)
	}
}

// BenchmarkSwitchSample measures one stochastic switch-cost sample
// under the paper model, alternating the two kinds as a schedule does:
// one RNG draw and a tickTable lookup. The tables are built, once per
// process, by the first sample of each kind — before the clock starts.
func BenchmarkSwitchSample(b *testing.B) {
	costs := PaperSwitchCosts()
	rng := NewRNG(1)
	sink := costs.Sample(Voluntary, rng) + costs.Sample(Involuntary, rng)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sink += costs.Sample(SwitchKind(i&1), rng)
	}
	switchSampleSink = sink
}

var switchSampleSink ticks.Ticks

// BenchmarkEventQueue measures the bare queue: two pushes, a cancel
// and a pop per iteration.
func BenchmarkEventQueue(b *testing.B) {
	var q EventQueue
	fn := func() {}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e1 := q.Push(ticks.Ticks(i), fn)
		q.Push(ticks.Ticks(i+7), fn)
		q.Cancel(e1)
		if e := q.Pop(); e == nil {
			b.Fatal("empty queue")
		}
	}
}
