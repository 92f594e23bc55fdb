package sched

import (
	"sort"
	"testing"
	"testing/quick"

	"repro/internal/sim"
	"repro/internal/task"
	"repro/internal/ticks"
)

// Queue invariants (DESIGN.md §4.5): TimeRemaining and TimeExpired
// are always deadline-ordered, and a task is on at most one of them.
// These run against live scheduler state mid-simulation via a hook
// installed by the test.

func (s *Scheduler) checkQueueInvariants(t *testing.T) {
	t.Helper()
	sorted := func(q []*tcb, name string) {
		for i := 1; i < len(q); i++ {
			if q[i-1].deadline > q[i].deadline {
				t.Errorf("%s not deadline-ordered: %v after %v",
					name, q[i-1].deadline, q[i].deadline)
			}
		}
	}
	sorted(s.timeRemaining, "TimeRemaining")
	sorted(s.timeExpired, "TimeExpired")
	sorted(s.overtimeQ, "OvertimeRequested")

	seen := make(map[task.ID]queueID)
	for _, tcb := range s.timeRemaining {
		seen[tcb.id] = qTimeRemaining
		if tcb.queue != qTimeRemaining {
			t.Errorf("task %d on TimeRemaining but tagged %v", tcb.id, tcb.queue)
		}
	}
	for _, tcb := range s.timeExpired {
		if _, dup := seen[tcb.id]; dup {
			t.Errorf("task %d on both queues", tcb.id)
		}
		if tcb.queue != qTimeExpired {
			t.Errorf("task %d on TimeExpired but tagged %v", tcb.id, tcb.queue)
		}
	}
	// Overtime membership matches the flag.
	onQ := make(map[task.ID]bool)
	for _, tcb := range s.overtimeQ {
		onQ[tcb.id] = true
		if !tcb.overtime {
			t.Errorf("task %d on overtime queue without the flag", tcb.id)
		}
	}
	for _, tcb := range s.byID {
		if tcb.overtime && !onQ[tcb.id] {
			t.Errorf("task %d flagged overtime but absent from the queue", tcb.id)
		}
	}
}

func TestQueueInvariantsUnderChurn(t *testing.T) {
	f := func(seed uint8) bool {
		rng := sim.NewRNG(uint64(seed) + 1)
		k, m, s := newSystem(0, sim.ZeroSwitchCosts())
		bodies := []func() task.Body{
			func() task.Body { return task.Busy() },
			func() task.Body { return task.PeriodicWork(2 * ms) },
			func() task.Body { return task.WorkThenBlock(ms, 15*ms) },
		}
		for i := 0; i < 5; i++ {
			period := ticks.Ticks(7+rng.Intn(20)) * ms
			pct := 5 + rng.Intn(15)
			_, _ = m.RequestAdmittance(&task.Task{
				Name: string(rune('a' + i)),
				List: task.UniformLevels(period, "T", pct),
				Body: bodies[rng.Intn(len(bodies))](),
			})
		}
		// Advance in small steps, checking the invariants between.
		for step := 0; step < 40; step++ {
			s.RunUntil(k.Now() + ticks.Ticks(1+rng.Intn(7))*ms)
			s.checkQueueInvariants(t)
		}
		return !t.Failed()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// TestDeadlineQueueMatchesSortedReference drives insertByDeadline and
// removeFrom with random inserts and removals — few distinct deadlines,
// so ties on deadline are the common case — and holds the queue to a
// reference kept by appending and stable-sorting on (deadline, id).
func TestDeadlineQueueMatchesSortedReference(t *testing.T) {
	f := func(seed uint16) bool {
		rng := sim.NewRNG(uint64(seed) + 1)
		var q, ref, out []*tcb
		for i := 0; i < 24; i++ {
			out = append(out, &tcb{id: task.ID(i + 1)})
		}
		for step := 0; step < 200; step++ {
			if insert := len(out) > 0 && (len(ref) == 0 || rng.Intn(3) > 0); insert {
				i := rng.Intn(len(out))
				x := out[i]
				out = append(out[:i], out[i+1:]...)
				x.deadline = ticks.Ticks(rng.Intn(5))
				q = insertByDeadline(q, x)
				ref = append(ref, x)
				sort.SliceStable(ref, func(a, b int) bool {
					if ref[a].deadline != ref[b].deadline {
						return ref[a].deadline < ref[b].deadline
					}
					return ref[a].id < ref[b].id
				})
			} else {
				i := rng.Intn(len(ref))
				x := ref[i]
				ref = append(ref[:i], ref[i+1:]...)
				q = removeFrom(q, x)
				q = removeFrom(q, x) // absent: a no-op
				out = append(out, x)
			}
			if len(q) != len(ref) {
				t.Errorf("seed %d step %d: queue holds %d tasks, reference %d", seed, step, len(q), len(ref))
				return false
			}
			for i := range q {
				if q[i] != ref[i] {
					t.Errorf("seed %d step %d: position %d holds task %d (deadline %d), reference task %d (deadline %d)",
						seed, step, i, q[i].id, q[i].deadline, ref[i].id, ref[i].deadline)
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}
