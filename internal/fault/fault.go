// Package fault provides deterministic fault injectors for the ETI
// Resource Distributor simulation: task overrun, a task that never
// quiesces, crash/restart cycles, interrupt storms, timer lateness
// and coalescing, and corrupted Policy Box input.
//
// Determinism contract: every injector draws its randomness from a
// private sim.SplitSeed substream of the scenario seed (streams
// StreamBase and up — the kernel's own substreams stay below it), so
// arming a fault never consumes from, and therefore never perturbs,
// the main simulation cost stream. A fault that does not fire inside
// the run horizon leaves the trace byte-identical to an unfaulted run;
// a fault that fires changes the schedule only through the system's
// public interfaces, exactly as a misbehaving application or device
// would. See docs/FAULTS.md and docs/DETERMINISM.md.
//
// Every injection is recorded in a telemetry.EventLog with a "fault."
// kind, so scenario reports can correlate what was injected with what
// the invariant checker (internal/invariant) subsequently observed.
package fault

import (
	"bytes"
	"errors"
	"fmt"

	"repro/internal/core"
	"repro/internal/sim"
	"repro/internal/task"
	"repro/internal/telemetry"
	"repro/internal/ticks"
)

// StreamBase is the first sim.SplitSeed substream number reserved for
// fault injection. Streams below it belong to the kernel and the
// workload models; ArmAll hands stream StreamBase+i to the i-th
// injector.
const StreamBase = 16

// StreamCrashRestart is the named substream CrashRestart forks (off
// its positional injector substream) for up/down duration draws, so
// the crash schedule has its own identity in the stream table
// (docs/DETERMINISM.md) and the rngstream analyzer can police it
// fleet-wide like every other allocated stream.
const StreamCrashRestart = 6

// Injector arms one deterministic fault against an assembled system.
// Arm must schedule all of the fault's effects (via d.At and the
// system's public interfaces) and return; it must not block, panic, or
// touch any RNG other than the one it is given.
type Injector interface {
	// Name identifies the injector in logs and scenario tables.
	Name() string
	// Validate checks the spec before arming. Zero or negative
	// periods, counts and intervals would otherwise degenerate into
	// silent no-ops or same-tick timer loops; they are spec errors.
	Validate() error
	// Arm schedules the fault's effects on d. rng is the injector's
	// private substream; log receives one "fault.*" event per
	// injection at the virtual time it takes effect.
	Arm(d *core.Distributor, rng *sim.RNG, log *telemetry.EventLog)
}

// ArmAll arms each injector with its own substream of seed: injector i
// draws from sim.SplitSeed(seed, StreamBase+i). The substream
// assignment depends only on position, so a scenario's injector list
// is part of its deterministic identity. Every spec is validated
// before anything is armed: a bad spec arms nothing and returns an
// error instead of burying a degenerate injector in the run.
func ArmAll(d *core.Distributor, seed uint64, log *telemetry.EventLog, injs ...Injector) error {
	for i, inj := range injs {
		if err := inj.Validate(); err != nil {
			return fmt.Errorf("fault: injector %d (%s): %w", i, inj.Name(), err)
		}
	}
	for i, inj := range injs {
		rng := sim.NewRNG(sim.SplitSeed(seed, StreamBase+uint64(i)))
		if t := d.Telemetry(); t != nil {
			t.Reg().Counter("fault.armed").Inc()
		}
		inj.Arm(d, rng, log)
	}
	return nil
}

// taskSpecErr validates the (name, period, cpu, at) quad shared by
// the task-shaped injectors.
func taskSpecErr(name string, period, cpu, at ticks.Ticks) error {
	if name == "" {
		return errors.New("task name is required")
	}
	if period <= 0 {
		return fmt.Errorf("period %d must be positive", int64(period))
	}
	if cpu <= 0 {
		return fmt.Errorf("cpu %d must be positive", int64(cpu))
	}
	if cpu > period {
		return fmt.Errorf("cpu %d exceeds period %d", int64(cpu), int64(period))
	}
	if at < 0 {
		return fmt.Errorf("arm time %d must not be negative", int64(at))
	}
	return nil
}

// record writes one fault event to the log and mirrors it into the
// run's telemetry (when the Distributor was assembled with one): the
// "fault.fired" counter and an instant "fault" decision span. Fault
// firing is cold path, so the by-name handle lookup is fine here.
func record(d *core.Distributor, log *telemetry.EventLog, at ticks.Ticks, kind, detail string) {
	log.Record(at, kind, detail)
	if t := d.Telemetry(); t != nil {
		t.Reg().Counter("fault.fired").Inc()
		t.SpanLog().Instant(at, "fault", kind, telemetry.NoTask, 0, detail)
	}
}

// --- task overrun ---

// Overrun admits a task at At that overruns its declared CPU every
// period: it consumes its full grant, then requests overtime for an
// extra factor of work drawn per period from the injector substream
// (between 1.5x and 3x the declared CPU). The EDF scheduler must
// contain the overrun in overtime so other tasks keep their grants.
type Overrun struct {
	TaskName    string
	Period, CPU ticks.Ticks
	At          ticks.Ticks
}

func (o Overrun) Name() string { return "overrun" }

func (o Overrun) Validate() error {
	return taskSpecErr(o.TaskName, o.Period, o.CPU, o.At)
}

func (o Overrun) Arm(d *core.Distributor, rng *sim.RNG, log *telemetry.EventLog) {
	d.At(o.At, func() {
		id, err := d.RequestAdmittance(&task.Task{
			Name: o.TaskName,
			List: task.ResourceList{{Period: o.Period, CPU: o.CPU, Fn: "Overrun"}},
			Body: overrunBody(o.CPU, rng),
		})
		if err != nil {
			record(d, log, d.Now(), "fault.overrun-rejected", fmt.Sprintf("%s: %v", o.TaskName, err))
			return
		}
		record(d, log, d.Now(), "fault.overrun", fmt.Sprintf("%s admitted as task %d, overruns %v CPU every %v", o.TaskName, id, o.CPU, o.Period))
	})
}

// overrunBody performs target work each period where target is redrawn
// per period as cpu * uniform[1.5, 3): the declared grant plus a
// random helping of overtime. The factor is drawn in integer
// per-mille so the target stays in exact tick arithmetic.
func overrunBody(cpu ticks.Ticks, rng *sim.RNG) task.Body {
	target := cpu
	return task.BodyFunc(func(ctx task.RunContext) task.RunResult {
		if ctx.NewPeriod {
			permille := ticks.Ticks(1500 + rng.Intn(1500))
			target = cpu * permille / 1000
		}
		left := target - ctx.UsedThisPeriod
		if left <= 0 {
			return task.RunResult{Op: task.OpYield, Completed: true}
		}
		if left <= ctx.Span {
			return task.RunResult{Used: left, Op: task.OpYield, Completed: true}
		}
		return task.RunResult{Used: ctx.Span, Op: task.OpOvertime}
	})
}

// --- never quiesce ---

// NeverQuiesce admits a task at At that never yields, never reports
// completion, ignores §5.6 grace-period notifications, and requests
// overtime forever — the misbehaving BusyLoop of Table 6 with
// controlled preemption registered and then ignored. The scheduler
// must preempt it involuntarily every period and charge exceptions.
type NeverQuiesce struct {
	TaskName    string
	Period, CPU ticks.Ticks
	At          ticks.Ticks
}

func (n NeverQuiesce) Name() string { return "never-quiesce" }

func (n NeverQuiesce) Validate() error {
	return taskSpecErr(n.TaskName, n.Period, n.CPU, n.At)
}

func (n NeverQuiesce) Arm(d *core.Distributor, rng *sim.RNG, log *telemetry.EventLog) {
	d.At(n.At, func() {
		id, err := d.RequestAdmittance(&task.Task{
			Name:                 n.TaskName,
			List:                 task.ResourceList{{Period: n.Period, CPU: n.CPU, Fn: "BusyLoop"}},
			Body:                 task.Busy(),
			ControlledPreemption: true,
		})
		if err != nil {
			record(d, log, d.Now(), "fault.never-quiesce-rejected", fmt.Sprintf("%s: %v", n.TaskName, err))
			return
		}
		record(d, log, d.Now(), "fault.never-quiesce", fmt.Sprintf("%s admitted as task %d, will ignore every grace period", n.TaskName, id))
	})
}

// --- crash / restart ---

// CrashRestart admits a well-behaved task at At, then crashes it
// (removes the grant mid-run, as a watchdog would) and restarts it
// (re-admits under the same name, with a fresh task ID), for Cycles
// cycles. Up/down durations are drawn per cycle from the injector
// substream around MeanUp/MeanDown (uniform in [mean/2, 3*mean/2)).
// The crash instants land wherever they land — including inside
// dispatch slices and charged context switches — which is the point.
type CrashRestart struct {
	TaskName         string
	Period, CPU      ticks.Ticks
	At               ticks.Ticks
	Cycles           int
	MeanUp, MeanDown ticks.Ticks
}

func (c CrashRestart) Name() string { return "crash-restart" }

func (c CrashRestart) Validate() error {
	if err := taskSpecErr(c.TaskName, c.Period, c.CPU, c.At); err != nil {
		return err
	}
	if c.Cycles < 0 {
		return fmt.Errorf("cycles %d must not be negative", c.Cycles)
	}
	if c.Cycles > 0 && (c.MeanUp <= 0 || c.MeanDown <= 0) {
		return fmt.Errorf("mean up %d / mean down %d must be positive when cycles > 0",
			int64(c.MeanUp), int64(c.MeanDown))
	}
	return nil
}

func (c CrashRestart) Arm(d *core.Distributor, rng *sim.RNG, log *telemetry.EventLog) {
	// Up/down durations come from the named StreamCrashRestart
	// substream, forked off the positional injector substream: the
	// schedule stays decorrelated per injector position but has its
	// own allocated stream identity (docs/DETERMINISM.md).
	r := sim.NewRNG(sim.SplitSeed(rng.Uint64(), StreamCrashRestart))
	jitter := func(mean ticks.Ticks) ticks.Ticks {
		if mean <= 0 {
			return 1
		}
		return mean/2 + ticks.Ticks(r.Uint64()%uint64(mean))
	}
	// Draw the whole crash schedule at arm time so the substream is
	// consumed in a fixed order regardless of how the run interleaves.
	type cycle struct{ up, down ticks.Ticks }
	cycles := make([]cycle, c.Cycles)
	for i := range cycles {
		cycles[i] = cycle{up: jitter(c.MeanUp), down: jitter(c.MeanDown)}
	}

	var id task.ID
	admit := func(when string) {
		var err error
		id, err = d.RequestAdmittance(&task.Task{
			Name: c.TaskName,
			List: task.ResourceList{{Period: c.Period, CPU: c.CPU, Fn: "Restartable"}},
			Body: task.PeriodicWork(c.CPU),
		})
		if err != nil {
			record(d, log, d.Now(), "fault."+when+"-rejected", fmt.Sprintf("%s: %v", c.TaskName, err))
			id = task.NoID
			return
		}
		record(d, log, d.Now(), "fault."+when, fmt.Sprintf("%s admitted as task %d", c.TaskName, id))
	}
	at := c.At
	d.At(at, func() { admit("restart") })
	for _, cy := range cycles {
		at += cy.up
		d.At(at, func() {
			if id == task.NoID {
				return
			}
			crashed := id
			if err := d.Terminate(crashed); err != nil {
				record(d, log, d.Now(), "fault.crash-failed", fmt.Sprintf("task %d: %v", crashed, err))
				return
			}
			id = task.NoID
			record(d, log, d.Now(), "fault.crash", fmt.Sprintf("%s (task %d) crashed; grant revoked mid-run", c.TaskName, crashed))
		})
		at += cy.down
		d.At(at, func() { admit("restart") })
	}
}

// --- interrupt storm ---

// Storm injects interrupt bursts (§5.2) starting at At: Bursts bursts,
// Every apart, each running between Count/2 and Count back-to-back
// handlers of Service ticks (the count drawn per burst from the
// injector substream). Unlike AddInterruptLoad's steady drip, a burst
// steals a contiguous slab of CPU — the load the interrupt reserve
// cannot fully absorb.
type Storm struct {
	At      ticks.Ticks
	Bursts  int
	Every   ticks.Ticks
	Count   int
	Service ticks.Ticks

	// Injected accumulates the total handler time actually injected,
	// for tests to reconcile against the kernel's interrupt counters.
	Injected *ticks.Ticks
}

func (s Storm) Name() string { return "storm" }

func (s Storm) Validate() error {
	if s.Bursts < 1 {
		return fmt.Errorf("bursts %d must be at least 1", s.Bursts)
	}
	if s.Count < 1 {
		return fmt.Errorf("count %d must be at least 1", s.Count)
	}
	if s.Service <= 0 {
		return fmt.Errorf("service time %d must be positive", int64(s.Service))
	}
	if s.Bursts > 1 && s.Every <= 0 {
		return fmt.Errorf("every %d must be positive when bursts > 1", int64(s.Every))
	}
	if s.At < 0 {
		return fmt.Errorf("arm time %d must not be negative", int64(s.At))
	}
	return nil
}

func (s Storm) Arm(d *core.Distributor, rng *sim.RNG, log *telemetry.EventLog) {
	counts := make([]int, s.Bursts)
	for i := range counts {
		counts[i] = s.Count
		if s.Count > 1 {
			counts[i] = s.Count/2 + rng.Intn(s.Count/2+1)
		}
	}
	for i, n := range counts {
		n := n
		d.At(s.At+ticks.Ticks(i)*s.Every, func() {
			at := d.Now()
			for j := 0; j < n; j++ {
				d.Kernel().RunInterrupt(s.Service)
				if s.Injected != nil {
					*s.Injected += s.Service
				}
			}
			record(d, log, at, "fault.storm", fmt.Sprintf("burst of %d handlers x %v ticks", n, s.Service))
		})
	}
}

// --- timer lateness / coalescing ---

// Jitter installs a sim.TimerFault at At: every kernel event scheduled
// from then on is delivered up to MaxLate ticks late (lateness drawn
// from the fault's own substream) and rounded up to Coalesce-tick
// boundaries, modelling a sloppy or batching hardware timer. The
// fault's RNG is seeded from the injector substream, so an armed
// jitter with MaxLate == 0 and Coalesce == 0 is an exact no-op.
type Jitter struct {
	At       ticks.Ticks
	MaxLate  ticks.Ticks
	Coalesce ticks.Ticks
}

func (j Jitter) Name() string { return "jitter" }

func (j Jitter) Validate() error {
	if j.At < 0 {
		return fmt.Errorf("arm time %d must not be negative", int64(j.At))
	}
	if j.MaxLate < 0 {
		return fmt.Errorf("max lateness %d must not be negative", int64(j.MaxLate))
	}
	if j.Coalesce < 0 {
		return fmt.Errorf("coalesce quantum %d must not be negative", int64(j.Coalesce))
	}
	return nil
}

func (j Jitter) Arm(d *core.Distributor, rng *sim.RNG, log *telemetry.EventLog) {
	f := sim.NewTimerFault(rng.Uint64(), j.MaxLate, j.Coalesce)
	d.At(j.At, func() {
		d.Kernel().SetTimerFault(f)
		record(d, log, d.Now(), "fault.jitter", fmt.Sprintf("timers now up to %v late, coalesced to %v", j.MaxLate, j.Coalesce))
	})
}

// --- corrupted Policy Box input ---

// PolicyCorrupt feeds a deterministically mangled policy file to the
// Policy Box at At: it serializes the live Box, then either truncates
// the bytes or flips one of them (choice and position drawn from the
// injector substream), and calls Load. The Box must reject the input
// atomically — the event log records whether it did, and a
// "fault.policy-mutated" event marks the one outcome that is a bug:
// rejected input that still changed the Box.
type PolicyCorrupt struct {
	At ticks.Ticks
}

func (p PolicyCorrupt) Name() string { return "policy-corrupt" }

func (p PolicyCorrupt) Validate() error {
	if p.At < 0 {
		return fmt.Errorf("arm time %d must not be negative", int64(p.At))
	}
	return nil
}

func (p PolicyCorrupt) Arm(d *core.Distributor, rng *sim.RNG, log *telemetry.EventLog) {
	d.At(p.At, func() {
		box := d.Box()
		var before bytes.Buffer
		if err := box.Save(&before); err != nil {
			record(d, log, d.Now(), "fault.policy-skipped", fmt.Sprintf("live box does not serialize: %v", err))
			return
		}
		mangled, how := mangle(before.Bytes(), rng)
		err := box.Load(bytes.NewReader(mangled))
		var after bytes.Buffer
		_ = box.Save(&after)
		switch {
		case err != nil && bytes.Equal(before.Bytes(), after.Bytes()):
			record(d, log, d.Now(), "fault.policy", fmt.Sprintf("%s rejected atomically: %v", how, err))
		case err != nil:
			record(d, log, d.Now(), "fault.policy-mutated", fmt.Sprintf("%s rejected but the box changed: %v", how, err))
		default:
			// The mangling happened to leave valid JSON (flipping a byte
			// inside whitespace, say): the Box accepted a well-formed
			// file, which is not a fault at all.
			record(d, log, d.Now(), "fault.policy-accepted", how+" still parsed; box reloaded")
		}
	})
}

// mangle corrupts b one of two ways, reporting which.
func mangle(b []byte, rng *sim.RNG) ([]byte, string) {
	if len(b) < 2 {
		return []byte("not json"), "replacement with garbage"
	}
	if rng.Intn(2) == 0 {
		cut := 1 + rng.Intn(len(b)-1)
		return b[:cut], fmt.Sprintf("truncation to %d of %d bytes", cut, len(b))
	}
	i := rng.Intn(len(b))
	out := make([]byte, len(b))
	copy(out, b)
	out[i] ^= 0x5A
	return out, fmt.Sprintf("bit flip at byte %d of %d", i, len(b))
}
