package core_test

import (
	"bytes"
	"fmt"
	"testing"

	"repro/internal/core"
	"repro/internal/task"
	"repro/internal/telemetry"
	"repro/internal/ticks"
)

// TestTelemetryOffOnTraceByteIdentical is the telemetry layer's first
// determinism bar (ISSUE 5): enabling the full telemetry set — registry
// and span log — must not change what the simulation does, only what it
// records. The studio trace with telemetry on must equal the trace with
// telemetry off, byte for byte.
func TestTelemetryOffOnTraceByteIdentical(t *testing.T) {
	off := runStudioTrace(t, 2026, nil)
	tel := telemetry.NewSet()
	on := runStudioTrace(t, 2026, tel)
	if !bytes.Equal(off, on) {
		t.Fatalf("enabling telemetry changed the trace: %d vs %d bytes (first divergence at byte %d)",
			len(off), len(on), firstDiff(off, on))
	}
	// The run must actually have recorded telemetry, or the comparison
	// proved nothing.
	snap := tel.Reg().Snapshot()
	if snap.CounterValue("sched.dispatch.granted") == 0 {
		t.Fatal("telemetry recorded no granted dispatches; the on-run measured nothing")
	}
	if tel.SpanLog().N() == 0 {
		t.Fatal("telemetry recorded no spans; the on-run measured nothing")
	}
}

// studioManifest runs the studio workload with telemetry and freezes it
// into a manifest with a pinned Build, then serializes both the
// manifest and its Perfetto export.
func studioManifest(t *testing.T, seed uint64) (manifest, perfetto []byte) {
	t.Helper()
	tel := telemetry.NewSet()
	runStudioTrace(t, seed, tel)
	m := telemetry.NewManifest(seed)
	m.Build = "pinned-test-build"
	m.ConfigDigest = telemetry.ConfigDigest(struct {
		Scenario string
		Seed     uint64
	}{"studio", seed})
	m.HorizonTicks = 3 * 27_000_000
	m.Fill(tel)
	m.DeriveTotals()
	var mb, pb bytes.Buffer
	if err := m.WriteJSON(&mb); err != nil {
		t.Fatal(err)
	}
	if err := telemetry.WritePerfetto(&pb, m); err != nil {
		t.Fatal(err)
	}
	return mb.Bytes(), pb.Bytes()
}

// TestSameSeedManifestAndPerfettoByteIdentical is the telemetry layer's
// second determinism bar: same-seed runs must produce byte-identical
// manifests and byte-identical Perfetto JSON, and the export must pass
// structural validation.
func TestSameSeedManifestAndPerfettoByteIdentical(t *testing.T) {
	man1, pf1 := studioManifest(t, 2026)
	man2, pf2 := studioManifest(t, 2026)
	if !bytes.Equal(man1, man2) {
		t.Errorf("same-seed manifests differ: %d vs %d bytes (first divergence at byte %d)",
			len(man1), len(man2), firstDiff(man1, man2))
	}
	if !bytes.Equal(pf1, pf2) {
		t.Errorf("same-seed perfetto exports differ: %d vs %d bytes (first divergence at byte %d)",
			len(pf1), len(pf2), firstDiff(pf1, pf2))
	}
	if err := telemetry.ValidatePerfetto(bytes.NewReader(pf1)); err != nil {
		t.Errorf("perfetto export fails validation: %v", err)
	}

	// A different seed must steer the recorded telemetry too.
	manOther, _ := studioManifest(t, 1999)
	if bytes.Equal(man1, manOther) {
		t.Error("different seeds produced byte-identical manifests; telemetry is not observing the run")
	}
}

// TestQueueGaugeCountsPickedUpTasks holds the sched.queue.* gauges to
// the queue depths a decision is made on. Five equal tasks admitted to
// an idle Distributor are picked up together, before the first
// dispatch, so TimeRemaining holds all five before any of them runs —
// also when the switch to the first one dispatches in the pass that
// picked them up.
func TestQueueGaugeCountsPickedUpTasks(t *testing.T) {
	tel := telemetry.NewSet()
	d := core.New(core.Config{Seed: 1, Telemetry: tel})
	for i := range 5 {
		name := fmt.Sprintf("t%d", i)
		if _, err := d.RequestAdmittance(&task.Task{
			Name: name, List: task.SingleLevel(10*ticks.PerMillisecond, ticks.PerMillisecond, name),
			Body: task.PeriodicWork(ticks.PerMillisecond),
		}); err != nil {
			t.Fatal(err)
		}
	}
	d.Run(2 * ticks.PerMillisecond) // before the first period boundary
	if got := tel.Reg().Gauge("sched.queue.time_remaining").Max(); got != 5 {
		t.Errorf("sched.queue.time_remaining max = %d, want 5", got)
	}
}
