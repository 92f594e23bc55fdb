package sweep

// The fault scenario family: each member runs a small well-behaved
// media mix with the invariant checker armed, then injects one
// deterministic fault (internal/fault) and measures what the system
// does about it. The contract under test is the robustness half of
// the paper: a fault either stays contained, or every consequence is
// recorded — a deadline miss, a degradation decision, an event-log
// entry — and never a silent guarantee breach.
//
// All injector randomness comes from SplitSeed substreams at or above
// fault.StreamBase, so arming a fault never perturbs the unfaulted
// trace and every run replays byte-identically from its spec.
//
// The whole family can be requested at once: the matrix scenario name
// "fault" expands to every fault-* scenario.

import (
	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/task"
	"repro/internal/ticks"
)

// faultBaseline admits the family's common well-behaved workload: a
// multi-level video decoder and audio, both using their full grant
// and completing each period. Multi-level lists give the Policy Box
// something to shed when a fault forces degradation.
func (e *env) faultBaseline() error {
	return e.admitAll(&task.Task{
		Name: "video",
		List: task.UniformLevels(10*ms, "Video", 30, 20, 10),
		Body: task.YieldAll(),
	}, &task.Task{
		Name: "audio",
		List: task.UniformLevels(20*ms, "Audio", 10, 5),
		Body: task.YieldAll(),
	})
}

// runFault is the family's shared harness: arm the checker, start
// the system (with the overload governor sampling every governor
// ticks, when non-zero), admit the baseline, arm the injectors, run,
// and report recorded misses over total periods as the quality figure.
func (e *env) runFault(cfg core.Config, governor ticks.Ticks, injs ...fault.Injector) error {
	e.withInvariants()
	d := e.start(cfg)
	if governor > 0 {
		d.EnableOverloadGovernor(governor)
	}
	if err := e.faultBaseline(); err != nil {
		return err
	}
	if err := fault.ArmAll(d, e.spec.Seed, &e.flog, injs...); err != nil {
		return err
	}
	if err := e.run(d.Run); err != nil {
		return err
	}
	e.missesOverPeriods()
	return nil
}

func runFaultOverrun(e *env) error {
	return e.runFault(core.Config{}, 0,
		fault.Overrun{TaskName: "rogue", Period: 15 * ms, CPU: 2 * ms, At: 40 * ms})
}

func runFaultCrash(e *env) error {
	return e.runFault(core.Config{}, 0,
		fault.CrashRestart{TaskName: "flaky", Period: 10 * ms, CPU: 2 * ms, At: 30 * ms,
			Cycles: 3, MeanUp: 40 * ms, MeanDown: 10 * ms})
}

func runFaultStorm(e *env) error {
	return e.runFault(core.Config{InterruptReservePercent: 4}, 10*ms,
		fault.Storm{At: 50 * ms, Bursts: 4, Every: 20 * ms, Count: 16,
			Service: 500 * ticks.PerMicrosecond})
}

func runFaultJitter(e *env) error {
	return e.runFault(core.Config{}, 0,
		fault.Jitter{At: 30 * ms, MaxLate: 200 * ticks.PerMicrosecond,
			Coalesce: 50 * ticks.PerMicrosecond})
}

func runFaultPolicy(e *env) error {
	return e.runFault(core.Config{}, 0,
		fault.PolicyCorrupt{At: 60 * ms},
		fault.PolicyCorrupt{At: 120 * ms},
		fault.PolicyCorrupt{At: 180 * ms})
}
