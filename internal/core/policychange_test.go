package core

import (
	"testing"

	"repro/internal/policy"
	"repro/internal/task"
	"repro/internal/ticks"
	"repro/internal/trace"
)

// TestPolicyChangeMidRun exercises the §4.3/§7 user-override story
// end to end: the user flips the audio/video preference while the
// system runs in overload (the loud-environment example), the grants
// re-shape at period boundaries, and nothing misses.
func TestPolicyChangeMidRun(t *testing.T) {
	box := policy.NewBox()
	audio := box.Register("audio")
	video := box.Register("video")
	// Default: audio preferred.
	if err := box.SetDefault(policy.Policy{Shares: policy.Ranking{audio: 60, video: 35}}); err != nil {
		t.Fatal(err)
	}

	rec := trace.New()
	d := New(Config{SwitchCosts: zeroCosts(), PolicyBox: box, Observer: rec})
	levels := []int{90, 80, 70, 60, 50, 40, 30, 20, 10}
	mk := func(name string) task.ID {
		id, err := d.RequestAdmittance(&task.Task{
			Name: name,
			List: task.UniformLevels(10*ms, "T", levels...),
			Body: task.BodyFunc(func(ctx task.RunContext) task.RunResult {
				return task.RunResult{Used: ctx.Span, Op: task.OpYield, Completed: true}
			}),
		})
		if err != nil {
			t.Fatal(err)
		}
		return id
	}
	aid := mk("audio")
	vid := mk("video")

	if got := d.Grants().Of(aid).Entry.Rate().Percent(); got != 60 {
		t.Fatalf("audio initial rate = %v, want 60%%", got)
	}

	// The room gets loud at t=200ms: the user prefers video.
	d.At(200*ms, func() {
		if err := d.Box().SetOverride(policy.Policy{
			Shares: policy.Ranking{audio: 35, video: 60},
		}); err != nil {
			t.Errorf("SetOverride: %v", err)
			return
		}
		d.ReevaluatePolicy()
	})

	d.Run(400 * ms)

	gs := d.Grants()
	if got := gs.Of(vid).Entry.Rate().Percent(); got != 60 {
		t.Errorf("video rate after override = %v%%, want 60", got)
	}
	if got := gs.Of(aid).Entry.Rate().Percent(); got >= 60 {
		t.Errorf("audio rate after override = %v%%, want reduced", got)
	}
	if rec.MissCount() != 0 {
		t.Errorf("%d misses across the live policy change", rec.MissCount())
	}
	// The change landed at a period boundary, not mid-period: the
	// per-period allocation series for audio only ever shows whole
	// entry values.
	for _, p := range rec.AllocationSeries(aid) {
		pct := int(ticks.RateOf(p.CPU, 10*ms).Percent() + 0.5)
		found := false
		for _, l := range levels {
			if pct == l {
				found = true
			}
		}
		if !found {
			t.Errorf("audio period allocation %d%% is not a resource-list level", pct)
		}
	}
}
