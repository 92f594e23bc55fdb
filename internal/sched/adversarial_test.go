package sched

import (
	"fmt"
	"testing"
	"testing/quick"

	"repro/internal/sim"
	"repro/internal/task"
	"repro/internal/ticks"
)

// Fault injection: task bodies that lie. §3.1 promises that "one
// application cannot cause unpredictable behavior in another"; these
// tests aim misbehaving bodies at the Scheduler and check that the
// well-behaved victim keeps every guarantee.

// adversarialBody returns a body that misbehaves according to mode.
func adversarialBody(mode int, rng *sim.RNG) task.Body {
	switch mode % 6 {
	case 0: // claims to use more than the offered span
		return task.BodyFunc(func(ctx task.RunContext) task.RunResult {
			return task.RunResult{Used: ctx.Span * 10, Op: task.OpRanOut}
		})
	case 1: // claims negative usage
		return task.BodyFunc(func(ctx task.RunContext) task.RunResult {
			return task.RunResult{Used: -ctx.Span, Op: task.OpYield, Completed: true}
		})
	case 2: // yields instantly every time (never uses its grant)
		return task.BodyFunc(func(ctx task.RunContext) task.RunResult {
			return task.RunResult{Used: 0, Op: task.OpYield}
		})
	case 3: // blocks with absurd wake times
		return task.BodyFunc(func(ctx task.RunContext) task.RunResult {
			return task.RunResult{Used: ctx.Span / 2, Op: task.OpBlock, BlockFor: ticks.Ticks(rng.Intn(1000)) + 1}
		})
	case 4: // demands overtime having used nothing
		return task.BodyFunc(func(ctx task.RunContext) task.RunResult {
			return task.RunResult{Used: 0, Op: task.OpOvertime}
		})
	default: // returns a nonsense op value
		return task.BodyFunc(func(ctx task.RunContext) task.RunResult {
			return task.RunResult{Used: ctx.Span, Op: task.Op(77)}
		})
	}
}

func TestAdversarialBodiesCannotHurtVictim(t *testing.T) {
	f := func(seed uint16) bool {
		rng := sim.NewRNG(uint64(seed) + 1)
		_, m, s := newSystem(0, sim.ZeroSwitchCosts())
		victim := mustAdmitErrless(m, &task.Task{
			Name: "victim",
			List: task.SingleLevel(10*ms, 4*ms, "V"),
			Body: task.PeriodicWork(4 * ms),
		})
		for i := 0; i < 4; i++ {
			mode := rng.Intn(6)
			_, _ = m.RequestAdmittance(&task.Task{
				Name: fmt.Sprintf("adv%d", i),
				List: task.SingleLevel(ticks.Ticks(7+rng.Intn(10))*ms, 1*ms, "A"),
				Body: adversarialBody(mode, rng),
			})
		}
		s.RunUntil(ticks.PerSecond)
		st, ok := s.Stats(victim)
		if !ok {
			t.Error("victim dropped")
			return false
		}
		if st.Misses != 0 {
			t.Errorf("seed %d: victim missed %d deadlines", seed, st.Misses)
			return false
		}
		if st.UsedTicks != 400*ms {
			t.Errorf("seed %d: victim received %v of 400ms", seed, st.UsedTicks)
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

func TestNonsenseOpTreatedSafely(t *testing.T) {
	// An out-of-range Op from a body must not wedge the scheduler;
	// the unknown value falls through resolve without queue damage.
	_, m, s := newSystem(0, sim.ZeroSwitchCosts())
	mustAdmit(t, m, &task.Task{
		Name: "weird",
		List: task.SingleLevel(10*ms, 2*ms, "W"),
		Body: task.BodyFunc(func(ctx task.RunContext) task.RunResult {
			return task.RunResult{Used: ctx.Span, Op: task.Op(99)}
		}),
	})
	good := mustAdmit(t, m, &task.Task{
		Name: "good", List: task.SingleLevel(10*ms, 3*ms, "G"), Body: task.PeriodicWork(3 * ms),
	})
	s.RunUntil(200 * ms)
	st, _ := s.Stats(good)
	if st.Misses != 0 || st.UsedTicks != 60*ms {
		t.Errorf("victim of nonsense op: %+v", st)
	}
	auditClean(t, s)
}

func TestOverclaimingBodyIsClamped(t *testing.T) {
	// A body claiming 10x its span cannot consume more CPU than its
	// grant: accounting stays exact.
	_, m, s := newSystem(0, sim.ZeroSwitchCosts())
	liar := mustAdmit(t, m, &task.Task{
		Name: "liar",
		List: task.SingleLevel(10*ms, 3*ms, "L"),
		Body: task.BodyFunc(func(ctx task.RunContext) task.RunResult {
			return task.RunResult{Used: ctx.Span * 10, Op: task.OpRanOut}
		}),
	})
	s.RunUntil(100 * ms)
	st, _ := s.Stats(liar)
	if st.UsedTicks != st.GrantedTicks {
		t.Errorf("liar consumed %v of granted %v", st.UsedTicks, st.GrantedTicks)
	}
	if st.UsedTicks != 30*ms {
		t.Errorf("liar used %v, want exactly 30ms", st.UsedTicks)
	}
}
