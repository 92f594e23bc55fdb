package sweep

import (
	"reflect"
	"testing"

	"repro/internal/core"
	"repro/internal/ticks"
)

// TestRunReportsStall drives a checked Distributor, built by start,
// into the kernel's livelock guard with a zero-delay self-rescheduling
// event, and pins the error run returns: the text runOne records as the
// cell's RunMetrics.Err, and the sentence a stalled fleet node reports
// after its "node N: " prefix. The stalled run is never retired, so the
// worker's next run must still match one on a fresh worker.
func TestRunReportsStall(t *testing.T) {
	w := newWorker()
	e, err := newEnv(RunSpec{Scenario: "settop", CostModel: "zero", Policy: PolicyInvent,
		Seed: 1, Horizon: 100 * ticks.PerMillisecond}, w)
	if err != nil {
		t.Fatal(err)
	}
	e.checked = true
	d := e.start(core.Config{})
	var loop func()
	loop = func() { d.Kernel().After(0, loop) }
	d.At(5*ticks.PerMillisecond, loop)
	err = e.run(d.Run)
	const want = "kernel livelock guard tripped at t=135000 after 65537 same-tick events"
	if err == nil || err.Error() != want {
		t.Fatalf("run returned %v, want %q", err, want)
	}

	next := RunSpec{Scenario: "fault-crash", CostModel: "paper", Policy: PolicyInvent,
		Seed: 2, Horizon: 300 * ticks.PerMillisecond}
	if reused, fresh := runOne(next, w), runFresh(next); !reflect.DeepEqual(reused, fresh) {
		t.Errorf("the run after a stall differs from a fresh worker's\n reused: %+v\n  fresh: %+v", reused, fresh)
	}
}
