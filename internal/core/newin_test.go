package core_test

import (
	"bytes"
	"fmt"
	"testing"

	"repro/internal/core"
	"repro/internal/policy"
	"repro/internal/sim"
	"repro/internal/task"
	"repro/internal/telemetry"
	"repro/internal/ticks"
	"repro/internal/trace"
	"repro/internal/workload"
)

// figure5Trace runs the paper's Figure 5 workload for 200 ms on a
// Distributor built by NewIn in d (nil: a new one) and returns the
// serialized trace and the Distributor.
func figure5Trace(t *testing.T, d *core.Distributor) ([]byte, *core.Distributor) {
	t.Helper()
	rec := trace.New()
	d = core.NewIn(d, core.Config{
		Seed:                    5,
		InterruptReservePercent: 4,
		Observer:                rec,
		Telemetry:               &telemetry.Set{Registry: telemetry.NewRegistry()},
	})
	if _, _, err := workload.Figure5(d); err != nil {
		t.Fatal(err)
	}
	d.Run(200 * ticks.PerMillisecond)
	var buf bytes.Buffer
	if err := rec.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes(), d
}

// churnDistributor runs d through a seeded mix of everything a
// Distributor holds — admissions under a stored or an invented policy,
// removals, quiescence, list changes, sporadic work, interrupt load,
// the overload governor, timers — and stops with tasks running and
// events pending.
func churnDistributor(t *testing.T, d *core.Distributor, seed uint64) {
	t.Helper()
	const ms = ticks.PerMillisecond
	rng := sim.NewRNG(seed)
	zero := sim.ZeroSwitchCosts()
	cfg := core.Config{Seed: seed, InterruptReservePercent: int64(rng.Intn(5)), SwitchCosts: &zero}
	if rng.Intn(2) == 0 {
		cfg.SwitchCosts = nil // the paper's stochastic costs
	}
	if rng.Intn(2) == 0 {
		box := policy.NewBox()
		box.Register("w0")
		box.Register("w1")
		if err := box.SetOverride(policy.Policy{Shares: policy.Ranking{1: 60, 2: 30}}); err != nil {
			t.Fatal(err)
		}
		cfg.PolicyBox = box
	}
	d = core.NewIn(d, cfg)
	d.EnableOverloadGovernor(ticks.Ticks(1+rng.Intn(10)) * ms)
	if err := d.AddInterruptLoad(ticks.Ticks(1+rng.Intn(5))*ms, ticks.Ticks(10+rng.Intn(40))*ticks.PerMicrosecond); err != nil {
		t.Fatal(err)
	}
	if _, err := d.AddSporadicServer("ss", task.SingleLevel(10*ms, ms, "SS"), rng.Intn(2) == 0); err != nil {
		t.Fatal(err)
	}
	var ids []task.ID
	for step := 0; step < 60; step++ {
		switch rng.Intn(8) {
		case 0, 1:
			period := ticks.Ticks(5+rng.Intn(30)) * ms
			bodies := []task.Body{task.Busy(), task.PeriodicWork(period / 10), task.WorkThenBlock(period/10, 25*ms)}
			id, err := d.RequestAdmittance(&task.Task{
				Name: fmt.Sprintf("w%d", rng.Intn(3)),
				List: task.UniformLevels(period, "W", 10+rng.Intn(30), 5),
				Body: bodies[rng.Intn(len(bodies))],
			})
			if err == nil {
				ids = append(ids, id)
			}
		case 2:
			if len(ids) > 0 {
				_ = d.Terminate(ids[rng.Intn(len(ids))])
			}
		case 3:
			if len(ids) > 0 {
				_ = d.SetQuiescent(ids[rng.Intn(len(ids))])
			}
		case 4:
			if len(ids) > 0 {
				_ = d.Wake(ids[rng.Intn(len(ids))])
			}
		case 5:
			if len(ids) > 0 {
				_ = d.ChangeResourceList(ids[rng.Intn(len(ids))], task.UniformLevels(10*ms, "W", 20, 2))
			}
		case 6:
			d.AddSporadic("sp", task.BodyFunc(func(ctx task.RunContext) task.RunResult {
				return task.RunResult{Used: ctx.Span / 2, Op: task.OpRanOut}
			}))
		default:
			d.At(d.Now()+ticks.Ticks(rng.Intn(50))*ms, func() {})
			d.Run(ticks.Ticks(1+rng.Intn(20)) * ms)
		}
	}
}

// TestNewInMatchesNew: a Distributor rebuilt with NewIn after an
// arbitrary run — its tasks, records, tcbs, policy box, pending events
// and telemetry handles all left from that run — reproduces a fresh
// one's Figure 5 trace byte for byte, and so does one rebuilt twice.
func TestNewInMatchesNew(t *testing.T) {
	want, _ := figure5Trace(t, nil)
	for seed := uint64(1); seed <= 8; seed++ {
		d := core.New(core.Config{})
		churnDistributor(t, d, seed)
		got, d := figure5Trace(t, d)
		if !bytes.Equal(got, want) {
			t.Fatalf("seed %d: the rebuilt Distributor's trace differs from a fresh one's at byte %d", seed, firstDiff(got, want))
		}
		churnDistributor(t, d, seed+100)
		if got, _ := figure5Trace(t, d); !bytes.Equal(got, want) {
			t.Fatalf("seed %d: the Distributor rebuilt twice traces differently from a fresh one", seed)
		}
	}
}
