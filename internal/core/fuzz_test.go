package core

import (
	"fmt"
	"testing"

	"repro/internal/sim"
	"repro/internal/task"
	"repro/internal/ticks"
	"repro/internal/trace"
)

// TestScenarioFuzz drives randomized dynamic scenarios — admissions,
// terminations, quiescence toggles, resource-list changes, and
// blocking bodies, all at random times — and checks the global
// invariants from DESIGN.md §4 after every run:
//
//  1. zero deadline misses for every granted task, ever;
//  2. every committed grant set fits the schedulable CPU;
//  3. each grant maps to a real resource-list entry;
//  4. used granted CPU never exceeds granted CPU;
//  5. the run is deterministic (same seed, same outcome).
func TestScenarioFuzz(t *testing.T) {
	for seed := uint64(1); seed <= 60; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed-%d", seed), func(t *testing.T) {
			a := runFuzzScenario(t, seed)
			b := runFuzzScenario(t, seed)
			if a != b {
				t.Errorf("non-deterministic: %+v vs %+v", a, b)
			}
		})
	}
}

type fuzzOutcome struct {
	Misses   int64
	Switches int64
	Busy     ticks.Ticks
}

// fuzzBody builds a body with seed-dependent behaviour: plain
// periodic work, greedy overtime, or periodically blocking.
func fuzzBody(kind int, work ticks.Ticks) task.Body {
	switch kind % 4 {
	case 0:
		return task.PeriodicWork(work)
	case 1:
		return task.Busy()
	case 2:
		return task.WorkThenBlock(work, 25*ticks.PerMillisecond)
	default:
		return task.BodyFunc(func(ctx task.RunContext) task.RunResult {
			return task.RunResult{Used: ctx.Span, Op: task.OpYield, Completed: true}
		})
	}
}

func runFuzzScenario(t *testing.T, seed uint64) fuzzOutcome {
	t.Helper()
	const horizon = 2 * ticks.PerSecond
	rng := sim.NewRNG(seed)
	rec := trace.New()
	d := New(Config{
		Seed:                    seed,
		InterruptReservePercent: int64(rng.Intn(5)),
		Observer:                rec,
	})

	type live struct {
		id        task.ID
		quiescent bool
	}
	var tasks []live
	nextName := 0

	admit := func(at ticks.Ticks) {
		nextName++
		name := fmt.Sprintf("t%d", nextName)
		period := ticks.Ticks(10+rng.Intn(40)) * ticks.PerMillisecond
		levels := []int{}
		top := 20 + rng.Intn(70)
		for p := top; p >= 2; p = p * (30 + rng.Intn(40)) / 100 {
			levels = append(levels, p)
			if len(levels) >= 5 {
				break
			}
		}
		kind := rng.Intn(4)
		work := period * ticks.Ticks(levels[len(levels)-1]) / 100
		tk := &task.Task{
			Name:           name,
			List:           task.UniformLevels(period, "F", levels...),
			Body:           fuzzBody(kind, work),
			StartQuiescent: rng.Intn(5) == 0,
		}
		d.At(at, func() {
			id, err := d.RequestAdmittance(tk)
			if err != nil {
				return // denials are legitimate
			}
			tasks = append(tasks, live{id: id, quiescent: tk.StartQuiescent})
		})
	}

	// Schedule 10-18 admissions and 6 mutations at random times.
	nAdmit := 10 + rng.Intn(9)
	for i := 0; i < nAdmit; i++ {
		admit(ticks.Ticks(rng.Intn(int(horizon * 3 / 4))))
	}
	for i := 0; i < 6; i++ {
		at := ticks.Ticks(rng.Intn(int(horizon*3/4))) + horizon/8
		op := rng.Intn(3)
		d.At(at, func() {
			if len(tasks) == 0 {
				return
			}
			pick := rng.Intn(len(tasks))
			l := &tasks[pick]
			switch op {
			case 0:
				_ = d.Terminate(l.id)
				tasks = append(tasks[:pick], tasks[pick+1:]...)
			case 1:
				if l.quiescent {
					if err := d.Wake(l.id); err != nil {
						t.Errorf("wake failed: %v", err)
					}
					l.quiescent = false
				} else {
					_ = d.SetQuiescent(l.id)
					l.quiescent = true
				}
			case 2:
				period := ticks.Ticks(10+rng.Intn(20)) * ticks.PerMillisecond
				_ = d.ChangeResourceList(l.id, task.UniformLevels(period, "G", 30, 10, 5))
			}
		})
	}

	d.Run(horizon)

	// Invariant 1: no misses anywhere.
	var out fuzzOutcome
	out.Misses = int64(rec.MissCount())
	if out.Misses != 0 {
		for _, m := range rec.Misses {
			t.Errorf("seed %d: task %d missed at %v (undelivered %v)", seed, m.ID, m.Deadline, m.Undelivered)
		}
	}

	// Invariant 2 + 3: the final grant set fits and maps to entries.
	gs := d.Grants()
	if !gs.TotalFrac().LessOrEqual(d.Manager().Available()) {
		t.Errorf("seed %d: final grants %.4f exceed available %.4f",
			seed, gs.TotalFrac().Float(), d.Manager().Available().Float())
	}
	for _, g := range gs.All() {
		id := g.Task
		list, err := d.Manager().ListOf(id)
		if err != nil {
			t.Errorf("seed %d: grant for unadmitted task %d", seed, id)
			continue
		}
		if g.Level < 0 || g.Level >= len(list) || list[g.Level] != g.Entry {
			t.Errorf("seed %d: grant %v does not map to a list entry", seed, g)
		}
	}

	// Invariant 4: per-task delivered CPU never exceeds granted.
	for _, id := range d.Scheduler().TaskIDs() {
		st, _ := d.Stats(id)
		if st.UsedTicks > st.GrantedTicks {
			t.Errorf("seed %d: task %d used %v of granted %v", seed, id, st.UsedTicks, st.GrantedTicks)
		}
	}

	ks := d.KernelStats()
	out.Switches = ks.VolSwitches + ks.InvolSwitches
	out.Busy = ks.BusyTicks
	return out
}
