package sched

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/rm"
	"repro/internal/sim"
	"repro/internal/task"
	"repro/internal/ticks"
)

// rollTranscript writes every observer callback to a transcript. With
// alwaysWalk it also zeroes the scheduler's nextRoll at each one —
// every loop pass that moved the clock ends in a callback — so that
// scheduler walks its tasks on every pass, as rollPeriods did before
// it kept nextRoll.
type rollTranscript struct {
	s          *Scheduler
	alwaysWalk bool
	b          strings.Builder
}

func (o *rollTranscript) logf(format string, args ...any) {
	fmt.Fprintf(&o.b, format, args...)
	if o.alwaysWalk {
		o.s.nextRoll = 0
	}
}

func (o *rollTranscript) OnDispatch(id task.ID, _ string, from, to ticks.Ticks, kind DispatchKind, level int) {
	o.logf("dispatch %d %d-%d %v L%d\n", id, from, to, kind, level)
}
func (o *rollTranscript) OnPeriodStart(id task.ID, start, deadline ticks.Ticks, level int, cpu ticks.Ticks) {
	o.logf("period %d %d-%d L%d cpu=%d\n", id, start, deadline, level, cpu)
}
func (o *rollTranscript) OnDeadlineMiss(id task.ID, deadline, undelivered ticks.Ticks) {
	o.logf("miss %d at %d left %d\n", id, deadline, undelivered)
}
func (o *rollTranscript) OnSwitch(kind sim.SwitchKind, cost ticks.Ticks) {
	o.logf("switch %v %d\n", kind, cost)
}
func (o *rollTranscript) OnGrantApplied(id task.ID, g rm.Grant) {
	o.logf("grant %d L%d\n", id, g.Level)
}
func (o *rollTranscript) OnBlock(id task.ID, at ticks.Ticks) { o.logf("block %d at %d\n", id, at) }

// rollSchedule runs one seeded schedule of admissions, removals,
// blocking bodies, explicit wakes and inserted idle cycles, and returns
// everything the run made observable.
func rollSchedule(seed uint64, alwaysWalk bool) string {
	rng := sim.NewRNG(seed)
	costs := sim.ZeroSwitchCosts()
	if seed%2 == 0 {
		costs = sim.PaperSwitchCosts()
	}
	k := sim.NewKernel(sim.Config{Seed: seed, Costs: costs})
	m := rm.New(rm.Config{})
	obs := &rollTranscript{alwaysWalk: alwaysWalk}
	s := New(Config{Kernel: k, RM: m, Observer: obs})
	obs.s = s
	m.SetHooks(s)

	const horizon = 400 * ms
	at := func() ticks.Ticks { return ticks.Ticks(rng.Uint64() % uint64(horizon)) }
	ids := make([]task.ID, 10) // NoID until admitted
	for i := range ids {
		ids[i] = task.NoID
		period := ticks.Ticks(3+rng.Intn(38)) * ms
		cpu := period * ticks.Ticks(2+rng.Intn(8)) / 100
		var body task.Body
		switch rng.Intn(4) {
		case 0:
			body = task.PeriodicWork(cpu)
		case 1:
			body = task.Busy()
		case 2: // blocks on a timer, across one or several boundaries
			body = task.WorkThenBlock(cpu/2, ticks.Ticks(1+rng.Intn(60))*ms)
		default: // blocks until a scheduled Unblock
			body = task.WorkThenBlock(cpu/2, 0)
		}
		tk := &task.Task{Name: fmt.Sprintf("t%d", i), List: task.SingleLevel(period, cpu, "T"), Body: body}
		admit := func() {
			if id, err := m.RequestAdmittance(tk); err == nil {
				ids[i] = id
			}
			obs.logf("admit %s -> %d\n", tk.Name, ids[i])
		}
		if i < 3 {
			admit()
		} else {
			k.At(at(), admit)
		}
	}
	for i := 0; i < 24; i++ {
		slot, op, n := rng.Intn(len(ids)), rng.Intn(3), ticks.Ticks(rng.Intn(15))*ms
		k.At(at(), func() {
			var err error
			switch op {
			case 0:
				err = m.Remove(ids[slot])
			case 1:
				err = s.Unblock(ids[slot])
			default:
				err = s.InsertIdleCycles(ids[slot], n)
			}
			obs.logf("op %d on %d: %v\n", op, ids[slot], err)
		})
	}
	s.RunUntil(horizon)

	fmt.Fprintf(&obs.b, "stats %+v\n", k.Stats())
	for _, id := range ids {
		if st, ok := s.Stats(id); ok {
			fmt.Fprintf(&obs.b, "task %d %+v\n", id, st)
		}
	}
	return obs.b.String()
}

// TestRollPeriodsSkipMatchesFullWalk holds the nextRoll early return
// to a scheduler that walks on every pass: tasks that arrive, leave,
// block across boundaries, are woken and have idle cycles inserted at
// random must see the same periods, misses and slices either way.
func TestRollPeriodsSkipMatchesFullWalk(t *testing.T) {
	for seed := uint64(1); seed <= 40; seed++ {
		got, want := rollSchedule(seed, false), rollSchedule(seed, true)
		if got != want {
			g, w := strings.Split(got, "\n"), strings.Split(want, "\n")
			for i := range g {
				if i >= len(w) || g[i] != w[i] {
					t.Fatalf("seed %d: first difference at line %d:\n skip: %s\n walk: %s", seed, i, g[i], w[min(i, len(w)-1)])
				}
			}
			t.Fatalf("seed %d: transcripts differ in length (%d vs %d lines)", seed, len(g), len(w))
		}
		for _, ev := range []string{"period ", "block ", "op 0", "op 1", "op 2"} {
			if !strings.Contains(got, ev) {
				t.Errorf("seed %d: schedule never produced %q", seed, ev)
			}
		}
	}
}
