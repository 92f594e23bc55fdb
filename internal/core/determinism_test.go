package core_test

import (
	"bytes"
	"testing"

	"repro/internal/core"
	"repro/internal/extclock"
	"repro/internal/policy"
	"repro/internal/rm"
	"repro/internal/task"
	"repro/internal/telemetry"
	"repro/internal/ticks"
	"repro/internal/trace"
	"repro/internal/workload"
)

// runStudioTrace drives a compressed version of examples/studio — live
// MPEG, AC3 audio, an overlay with a shed level, a quiescent modem
// woken mid-run, a phase-locked display issuing InsertIdleCycles, a
// Sporadic Server and interrupt load — for three simulated seconds and
// returns the full serialized trace.
func runStudioTrace(t *testing.T, seed uint64, tel *telemetry.Set) []byte {
	t.Helper()
	const ms = ticks.PerMillisecond

	box := policy.NewBox()
	members := map[string]policy.MemberID{}
	for _, n := range []string{"ac3", "mpeg-live", "overlay", "modem", "display", "sporadic"} {
		members[n] = box.Register(n)
	}
	if err := box.SetDefault(policy.Policy{Shares: policy.Ranking{
		members["mpeg-live"]: 33, members["ac3"]: 25, members["overlay"]: 15,
		members["display"]: 12, members["modem"]: 10, members["sporadic"]: 1,
	}}); err != nil {
		t.Fatal(err)
	}

	rec := trace.New()
	d := core.New(core.Config{
		Seed:                    seed,
		InterruptReservePercent: 4,
		PolicyBox:               box,
		Streamer:                rm.Capacity{StreamerMBps: 400},
		Observer:                rec,
		Telemetry:               tel,
	})

	stream := workload.NewTransportStream(d, 900_000, 6)
	dec := workload.NewStreamedMPEG(stream)
	mpegID, err := d.RequestAdmittance(dec.Task())
	if err != nil {
		t.Fatal(err)
	}
	stream.Start(d, mpegID)

	ac3 := workload.NewAC3()
	if _, err := d.RequestAdmittance(ac3.Task()); err != nil {
		t.Fatal(err)
	}

	if _, err := d.RequestAdmittance(&task.Task{
		Name: "overlay",
		List: task.ResourceList{
			{Period: 10 * ms, CPU: 2 * ms, Fn: "OverlayFull", StreamerMBps: 80},
			{Period: 10 * ms, CPU: 1 * ms, Fn: "OverlayHalf", StreamerMBps: 40},
		},
		Body: task.BodyFunc(func(ctx task.RunContext) task.RunResult {
			return task.RunResult{Used: ctx.Span, Op: task.OpYield, Completed: true}
		}),
		Semantics: task.ReturnSemantics,
	}); err != nil {
		t.Fatal(err)
	}

	modem := workload.NewModem()
	modemID, err := d.RequestAdmittance(modem.Task(true))
	if err != nil {
		t.Fatal(err)
	}
	d.At(1*ticks.PerSecond, func() {
		if err := d.Wake(modemID); err != nil {
			t.Fatal(err)
		}
	})

	ext := extclock.New(100, 0)
	lock, err := extclock.NewEstimatingPhaseLock(270_000, 269_400, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	var displayID task.ID
	displayID, err = d.RequestAdmittance(&task.Task{
		Name: "display",
		List: task.SingleLevel(269_400, 2*ms, "Refresh"),
		Body: task.BodyFunc(func(ctx task.RunContext) task.RunResult {
			if ctx.NewPeriod {
				lock.Observe(ctx.Now, ext.ReadAt(ctx.Now))
				_ = d.InsertIdleCycles(displayID, lock.Insertion(ctx.PeriodStart, ctx.Now, ext.ReadAt(ctx.Now)))
			}
			left := 2*ms - ctx.UsedThisPeriod
			if left <= 0 {
				return task.RunResult{Op: task.OpYield, Completed: true}
			}
			if left > ctx.Span {
				left = ctx.Span
			}
			return task.RunResult{Used: left, Op: task.OpYield, Completed: true}
		}),
	})
	if err != nil {
		t.Fatal(err)
	}

	if _, err := d.AddSporadicServer("sporadic", task.SingleLevel(10*ms, ms/2, "SS"), true); err != nil {
		t.Fatal(err)
	}
	d.AddSporadic("indexer", task.BodyFunc(func(ctx task.RunContext) task.RunResult {
		return task.RunResult{Used: ctx.Span, Op: task.OpRanOut}
	}))
	if err := d.AddInterruptLoad(ms, 25*ticks.PerMicrosecond); err != nil {
		t.Fatal(err)
	}

	d.Run(3 * ticks.PerSecond)

	var buf bytes.Buffer
	if err := rec.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestSameSeedTraceByteIdentical is the determinism regression test
// the rdlint analyzers exist to protect: the same workload under the
// same seed must serialize the exact same trace, byte for byte. Any
// map-order leak, wall-clock read or host-dependent float rounding in
// the simulation shows up here as a diff.
func TestSameSeedTraceByteIdentical(t *testing.T) {
	first := runStudioTrace(t, 2026, nil)
	second := runStudioTrace(t, 2026, nil)
	if !bytes.Equal(first, second) {
		t.Fatalf("same-seed runs produced different traces: %d vs %d bytes (first divergence at byte %d)",
			len(first), len(second), firstDiff(first, second))
	}
	// A different seed must actually steer the simulation: identical
	// output would mean the seed (and so the jitter model) is inert.
	other := runStudioTrace(t, 1999, nil)
	if bytes.Equal(first, other) {
		t.Fatal("different seeds produced byte-identical traces; seed is not reaching the simulation")
	}
}

func firstDiff(a, b []byte) int {
	n := min(len(a), len(b))
	for i := 0; i < n; i++ {
		if a[i] != b[i] {
			return i
		}
	}
	return n
}
