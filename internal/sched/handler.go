//rd:hotpath
package sched

import (
	"repro/internal/sim"
	"repro/internal/task"
	"repro/internal/ticks"
)

// The Scheduler's recurring timers — task wakeups, sporadic wakeups,
// and §5.2 interrupt sources — fire via the kernel's typed-callback
// events (sim.Handler) instead of closures. A closure per timer is an
// allocation per arming on the hottest paths in the simulator; the
// typed payload (op + id) reuses one pooled event per armed timer.
// Identity travels as an ID, never as a captured pointer, so a timer
// that outlives its object (a dropped task, a removed sporadic) finds
// nothing to wake and is inert — the same safety net the explicit
// Cancel calls provide, one layer deeper.
var _ sim.Handler = (*Scheduler)(nil)

// Typed event op codes.
const (
	// opWakeTask wakes the periodic task with the given task.ID from a
	// timed block (task.OpBlock with BlockFor > 0).
	opWakeTask int32 = iota
	// opWakeSporadic wakes the sporadic task with the given SporadicID.
	opWakeSporadic
	// opInterrupt fires the §5.2 interrupt source at index id in
	// s.interrupts: run the handler, then re-arm on the nominal
	// schedule.
	opInterrupt
)

// interruptSource is one AddInterruptLoad installation.
type interruptSource struct {
	interval ticks.Ticks
	service  ticks.Ticks
}

// HandleEvent implements sim.Handler.
func (s *Scheduler) HandleEvent(op, id int32, arg ticks.Ticks) {
	switch op {
	case opWakeTask:
		if t := s.find(task.ID(id)); t != nil {
			t.wakeEvent = sim.EventRef{}
			s.wake(t)
		}
	case opWakeSporadic:
		s.SporadicWake(SporadicID(id))
	case opInterrupt:
		src := s.interrupts[id]
		s.k.RunInterrupt(src.service)
		// Re-arm relative to the nominal schedule so the load is
		// exactly service/interval regardless of handler time.
		s.k.AfterCall(src.interval-src.service, s, opInterrupt, id, 0)
	}
}
