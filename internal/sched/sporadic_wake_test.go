package sched_test

import (
	"testing"

	"repro/internal/core"
	"repro/internal/task"
	"repro/internal/ticks"
)

// TestTimedSporadicBlockEndsTheSlice is the regression test for a
// sporadic task that blocks for a while mid-slice. Its wake-up used to
// be armed from the start of the dispatch it blocked in, and the server
// (or the task that assigned it its grant) ran on past that event, so
// the kernel panicked rather than skip it. The wake-up is armed at the
// block instant, the slice ends there, and the task running the
// assignment keeps its grant: every period's grant is consumed.
func TestTimedSporadicBlockEndsTheSlice(t *testing.T) {
	for _, c := range []struct {
		name string
		run  func(d *core.Distributor, blocker task.Body) (task.ID, error)
	}{
		{"server", func(d *core.Distributor, blocker task.Body) (task.ID, error) {
			id, err := d.AddSporadicServer("ss", task.SingleLevel(10*ms, 6*ms, "SS"), false)
			d.AddSporadic("blocker", blocker)
			d.AddSporadic("busy", task.Busy())
			return id, err
		}},
		{"AssignGrant", func(d *core.Distributor, blocker task.Body) (task.ID, error) {
			id, err := d.RequestAdmittance(&task.Task{Name: "donor", List: task.SingleLevel(10*ms, 6*ms, "D"), Body: task.BusySilent()})
			sp := d.AddSporadic("blocker", blocker)
			for at := ms / 2; at < 50*ms; at += 10 * ms {
				d.At(at, func() { _ = d.AssignGrant(id, sp, 4*ms) })
			}
			return id, err
		}},
	} {
		t.Run(c.name, func(t *testing.T) {
			d := core.New(core.Config{})
			var runs int
			var woke ticks.Ticks // the earliest a run may start: block instant + 2 ms
			work := task.WorkThenBlock(ms, 2*ms)
			blocker := task.BodyFunc(func(ctx task.RunContext) task.RunResult {
				if ctx.Now < woke {
					t.Fatalf("the blocker ran at %v, before its wake-up at %v", ctx.Now, woke)
				}
				runs++
				res := work.Run(ctx)
				if res.Op == task.OpBlock {
					woke = ctx.Now + res.Used + res.BlockFor
				}
				return res
			})
			id, err := c.run(d, blocker)
			if err != nil {
				t.Fatal(err)
			}
			d.Run(50 * ms)
			st, _ := d.Stats(id)
			if st.Periods < 4 || st.UsedTicks != st.GrantedTicks {
				t.Errorf("%d periods, used %v of a %v grant: the slice cut gave grant away", st.Periods, st.UsedTicks, st.GrantedTicks)
			}
			if runs < 2 {
				t.Errorf("the blocker ran %d times: never again after its wake-up", runs)
			}
		})
	}
}
