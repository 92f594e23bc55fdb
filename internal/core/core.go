// Package core assembles the ETI Resource Distributor: the Resource
// Manager (admission and grant control), the EDF Scheduler, and the
// Policy Box, wired onto a virtual-time simulation kernel exactly as
// Figure 2 of the paper wires them onto the MAP1000.
//
// A Distributor is the application-facing surface. Applications
// request admittance with a resource list, are guaranteed their grant
// in every period once admitted, shed load only as directed by the
// Policy Box, and may use the ancillary interfaces: quiescence
// (§5.3), sporadic tasks through the Sporadic Server (§5.1),
// InsertIdleCycles clock-skew compensation (§5.4), and controlled
// preemption (§5.6).
//
// Basic use:
//
//	d := core.New(core.Config{})
//	id, err := d.RequestAdmittance(&task.Task{
//	    Name: "mpeg",
//	    List: task.ResourceList{{Period: 900_000, CPU: 300_000, Fn: "FullDecompress"}},
//	    Body: task.PeriodicWork(300_000),
//	})
//	...
//	d.Run(ticks.FromSeconds(1))
package core

import (
	"repro/internal/policy"
	"repro/internal/rm"
	"repro/internal/sched"
	"repro/internal/sim"
	"repro/internal/task"
	"repro/internal/telemetry"
	"repro/internal/ticks"
)

// Config parameterises a Distributor. The zero value gives a system
// with the paper's switch costs, no interrupt reserve, an empty
// Policy Box, and default §5.6/§5.1 windows.
type Config struct {
	// Seed drives the deterministic PRNG (switch-cost sampling and
	// any randomized workloads). Zero selects a fixed default.
	Seed uint64

	// SwitchCosts models context-switch costs; nil selects the
	// paper-calibrated model (sim.PaperSwitchCosts).
	SwitchCosts *sim.SwitchCosts

	// InterruptReservePercent is the §5.2 reserve kept for interrupt
	// handling (the paper's Figure 5 run uses 4).
	InterruptReservePercent int64

	// Streamer is the Data Streamer bandwidth capacity; the zero
	// value leaves that dimension unmodelled.
	Streamer rm.Capacity

	// PolicyBox supplies overload policies; nil creates an empty box
	// (conflicts get invented 1/N policies).
	PolicyBox *policy.Box

	// Observer receives scheduling events (see internal/trace).
	Observer sched.Observer

	// Telemetry is the run's instrument registry and span log; every
	// subsystem (kernel, Resource Manager, Scheduler, Policy Box)
	// registers its counters there and records decision spans. Nil
	// disables telemetry at zero cost: the handles stay nil and every
	// hot-path record is a single nil-receiver no-op.
	Telemetry *telemetry.Set

	// OverrideWindow, GracePeriod, SporadicSlice tune the §4.2
	// small-overlap override, the §5.6 grace period, and the §5.1
	// assignment quantum. Zero selects the defaults.
	OverrideWindow ticks.Ticks
	GracePeriod    ticks.Ticks
	SporadicSlice  ticks.Ticks
}

// Distributor is an assembled ETI Resource Distributor instance.
type Distributor struct {
	kernel *sim.Kernel
	rm     *rm.Manager
	sched  *sched.Scheduler
	tel    *telemetry.Set

	governorSamples *telemetry.Counter
	governorSpans   *telemetry.Spans
	gov             governor // governor.go
}

// New assembles a Distributor.
func New(cfg Config) *Distributor { return NewIn(nil, cfg) }

// NewIn is New in d's storage (a new Distributor when d is nil): the
// kernel, Resource Manager (with the Policy Box it made) and Scheduler
// are rebuilt in their own storage, each keeping only its backings (the
// event pool, the records and both grant-set backings, the tcbs), and
// nothing else of the system d was survives. A caller that builds
// system after system — a fleet node restarting, a cluster rebuilt in
// its arena — keeps one Distributor and grows those backings once. The
// Distributor d was is gone: whoever held it, or any of its parts, must
// not use it again.
func NewIn(d *Distributor, cfg Config) *Distributor {
	costs := sim.PaperSwitchCosts()
	if cfg.SwitchCosts != nil {
		costs = *cfg.SwitchCosts
	}
	if d == nil {
		d = new(Distributor)
	}
	k := sim.NewKernelIn(d.kernel, sim.Config{Seed: cfg.Seed, Costs: costs})
	m := rm.NewIn(d.rm, rm.Config{
		Box:                     cfg.PolicyBox,
		InterruptReservePercent: cfg.InterruptReservePercent,
		Streamer:                cfg.Streamer,
	})
	*d = Distributor{kernel: k, rm: m, sched: d.sched, tel: cfg.Telemetry}
	if t := cfg.Telemetry; t != nil {
		k.EnableTelemetry(t.Reg())
		m.EnableTelemetry(t, k)
		m.Box().EnableTelemetry(t.Reg())
		d.governorSamples = t.Reg().Counter("core.governor.samples")
		d.governorSpans = t.SpanLog()
	}
	s := sched.NewIn(d.sched, sched.Config{
		Kernel:         k,
		RM:             m,
		Observer:       cfg.Observer,
		OverrideWindow: cfg.OverrideWindow,
		GracePeriod:    cfg.GracePeriod,
		SporadicSlice:  cfg.SporadicSlice,
		Telemetry:      cfg.Telemetry,
	})
	m.SetHooks(s)
	d.sched = s
	return d
}

// Telemetry exposes the run's telemetry set (nil when disabled), so
// layers wired after assembly — fault injectors, the invariant
// Checker — can register their own instruments against the same run.
func (d *Distributor) Telemetry() *telemetry.Set { return d.tel }

// Kernel exposes the simulation kernel (clock, RNG, counters).
func (d *Distributor) Kernel() *sim.Kernel { return d.kernel }

// Manager exposes the Resource Manager.
func (d *Distributor) Manager() *rm.Manager { return d.rm }

// Scheduler exposes the Scheduler.
func (d *Distributor) Scheduler() *sched.Scheduler { return d.sched }

// Box exposes the Policy Box.
func (d *Distributor) Box() *policy.Box { return d.rm.Box() }

// Now reports the current virtual time.
func (d *Distributor) Now() ticks.Ticks { return d.kernel.Now() }

// At schedules fn to run at virtual time at — the way scenario
// scripts model user actions ("hit play at t=2s").
func (d *Distributor) At(at ticks.Ticks, fn func()) { d.kernel.At(at, fn) }

// Run advances the system by dur.
func (d *Distributor) Run(dur ticks.Ticks) { d.sched.RunUntil(d.kernel.Now() + dur) }

// RunUntil advances the system to the absolute virtual time limit.
func (d *Distributor) RunUntil(limit ticks.Ticks) { d.sched.RunUntil(limit) }

// --- application-facing Resource Distributor interface ---

// RequestAdmittance submits a task with its resource list (§4.1). On
// success the task is guaranteed its granted resources every period
// until it exits or is terminated.
func (d *Distributor) RequestAdmittance(t *task.Task) (task.ID, error) {
	return d.rm.RequestAdmittance(t)
}

// Terminate removes a task at the user's request ("hitting stop").
func (d *Distributor) Terminate(id task.ID) error { return d.rm.Remove(id) }

// SetQuiescent parks a task in the quiescent state (§5.3).
func (d *Distributor) SetQuiescent(id task.ID) error { return d.rm.SetQuiescent(id) }

// Wake returns a quiescent task to service; it cannot be denied.
func (d *Distributor) Wake(id task.ID) error { return d.rm.Wake(id) }

// ChangeResourceList replaces a task's load-shedding menu (§4.1).
func (d *Distributor) ChangeResourceList(id task.ID, list task.ResourceList) error {
	return d.rm.ChangeResourceList(id, list)
}

// ReevaluatePolicy recomputes grants after the user edits the Policy
// Box mid-run (install overrides via Box(), then call this). Changes
// flow to tasks at their period boundaries, like any grant change.
func (d *Distributor) ReevaluatePolicy() { d.rm.Reevaluate() }

// InsertIdleCycles postpones a task's next period start (§5.4).
func (d *Distributor) InsertIdleCycles(id task.ID, n ticks.Ticks) error {
	return d.sched.InsertIdleCycles(id, n)
}

// Unblock wakes a task that blocked indefinitely.
func (d *Distributor) Unblock(id task.ID) error { return d.sched.Unblock(id) }

// AddSporadicServer admits a Sporadic Server (§5.1) with the given
// resource list: a task whose body, sched.ServerBody, has the Scheduler
// run queued sporadic tasks on its grant. alwaysOvertime reproduces the
// paper's Figure 5 configuration where the server always indicates work
// at the end of its period.
func (d *Distributor) AddSporadicServer(name string, list task.ResourceList, alwaysOvertime bool) (task.ID, error) {
	return d.rm.RequestAdmittance(&task.Task{Name: name, List: list, Body: sched.ServerBody(alwaysOvertime)})
}

// AddSporadic queues a sporadic task on the Sporadic Server.
func (d *Distributor) AddSporadic(name string, body task.Body) sched.SporadicID {
	return d.sched.AddSporadic(name, body)
}

// RemoveSporadic drops a sporadic task.
func (d *Distributor) RemoveSporadic(id sched.SporadicID) { d.sched.RemoveSporadic(id) }

// AssignGrant lets a periodic task assign its grant for a specific
// amount of CPU time to a sporadic task (§5.1). Bookkeeping stays
// with the periodic task; the assignment may span periods.
func (d *Distributor) AssignGrant(id task.ID, sp sched.SporadicID, amount ticks.Ticks) error {
	return d.sched.AssignGrant(id, sp, amount)
}

// AddInterruptLoad installs a periodic interrupt source (§5.2):
// every interval the CPU runs a handler for service ticks, charged to
// no task. The interrupt reserve exists to absorb exactly this load.
func (d *Distributor) AddInterruptLoad(interval, service ticks.Ticks) error {
	return d.sched.AddInterruptLoad(interval, service)
}

// --- observability ---

// Grants reports the committed grant set (Table 4's shape).
func (d *Distributor) Grants() rm.GrantSet { return d.rm.Grants() }

// Stats reports a task's scheduling accounting.
func (d *Distributor) Stats(id task.ID) (sched.TaskStats, bool) { return d.sched.Stats(id) }

// KernelStats reports global counters (switches, idle, busy).
func (d *Distributor) KernelStats() sim.Stats { return d.kernel.Stats() }
