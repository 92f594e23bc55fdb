package sweep

import (
	"fmt"
	"slices"

	"repro/internal/core"
	"repro/internal/fleet"
	"repro/internal/invariant"
	"repro/internal/sched"
	"repro/internal/sim"
	"repro/internal/task"
	"repro/internal/telemetry"
	"repro/internal/ticks"
)

// probe is the lightweight sched.Observer every single-node run
// installs: it records each task's first period start, from which
// admission latency is derived. firstPeriod is indexed by task ID —
// IDs are dense and never reused in a run — with notStarted for a
// task that has had no period yet. The sweep worker owns the probe
// and empties it per run, keeping the storage.
type probe struct {
	sched.NopObserver
	firstPeriod []ticks.Ticks
}

// notStarted marks a firstPeriod slot whose task has not started.
const notStarted ticks.Ticks = -1

func (p *probe) OnPeriodStart(id task.ID, start, _ ticks.Ticks, _ int, _ ticks.Ticks) {
	for int(id) >= len(p.firstPeriod) {
		p.firstPeriod = append(p.firstPeriod, notStarted)
	}
	if p.firstPeriod[id] == notStarted {
		p.firstPeriod[id] = start
	}
}

// started reports id's first period start, and whether it had one.
func (p *probe) started(id task.ID) (ticks.Ticks, bool) {
	if uint(id) < uint(len(p.firstPeriod)) && p.firstPeriod[id] != notStarted {
		return p.firstPeriod[id], true
	}
	return 0, false
}

// env is the harness a scenario's run function stages its experiment
// on. A scenario builds its substrate with start (a Distributor),
// startKernel (a bare kernel for a comparator scheduler) or runFleet (a
// cluster), drives it to the horizon through run — which leaves the
// substrate's measurements in m — and adds its own quality figures.
type env struct {
	spec  RunSpec
	sc    *Scenario
	costs sim.SwitchCosts
	m     RunMetrics

	pr *probe
	// k is the run's kernel: the Distributor's own, or the bare one a
	// comparator scheduler drives. d is the Distributor when there is
	// one; admit, wake and server go through it.
	k *sim.Kernel
	d *core.Distributor
	// tel is the run's telemetry (registry only — spans are per-run
	// detail the cell aggregates cannot use): the worker's, reset.
	tel    *telemetry.Set
	admits []admitRec

	// chk, when armed via withInvariants, rides the observer chain and
	// audits the paper's guarantees during the run.
	chk *invariant.Checker
	// flog collects fault-injection and invariant events for the run.
	flog telemetry.EventLog

	// arena is where runFleet builds its cluster: the sweep worker's
	// own, recycled by its next fleet run, or a private one when the
	// cluster is handed to a caller. clusterWorkers sizes the cluster's
	// node-advance pool: the sweep worker's share of the idle cores, or
	// RunFleetCluster's count. cluster and report are what runFleet
	// built and measured, kept for RunFleetCluster; spanLog is its
	// override of the sweep's counters-only cluster.
	arena          *fleet.Arena
	clusterWorkers int
	spanLog        bool
	cluster        *fleet.Cluster
	report         *fleet.Report
}

type admitRec struct {
	id task.ID
	at ticks.Ticks
}

// worker is the storage one sweep worker builds its runs in, one after
// another: the arena of its fleet runs and the registry and probe of
// its single-node runs. It belongs to one goroutine and holds one live
// run; a finished run's RunMetrics holds copies, so the next run is
// free to recycle all three. Which worker a run lands on, and what ran
// there before, never affects its results (docs/DETERMINISM.md), nor
// does clusterWorkers, the pool size of its clusters (0: one).
type worker struct {
	arena          fleet.Arena
	tel            telemetry.Set
	pr             probe
	clusterWorkers int
}

func newWorker() *worker {
	return &worker{tel: telemetry.Set{Registry: telemetry.NewRegistry()}}
}

// newEnv resolves a spec against the registries and readies w for the
// run. A policy the scenario does not stage is an error, so no run can
// name a cell outside the scenario's axis.
func newEnv(spec RunSpec, w *worker) (*env, error) {
	sc, ok := scenarioByName(spec.Scenario)
	if !ok {
		return nil, fmt.Errorf("sweep: unknown scenario %q", spec.Scenario)
	}
	if !slices.Contains(sc.Policies, spec.Policy) {
		return nil, fmt.Errorf("sweep: scenario %q does not stage policy %q (its %s axis has %v)",
			sc.Name, spec.Policy, sc.Axis, sc.Policies)
	}
	costs, ok := costModelByName(spec.CostModel)
	if !ok {
		return nil, fmt.Errorf("sweep: unknown cost model %q", spec.CostModel)
	}
	w.tel.Registry.Reset()
	w.pr.firstPeriod = w.pr.firstPeriod[:0]
	return &env{
		spec: spec, sc: sc, costs: costs, arena: &w.arena, tel: &w.tel, pr: &w.pr,
		clusterWorkers: w.clusterWorkers,
	}, nil
}

// start assembles the run's Distributor, applying the spec's seed and
// cost model plus the sweep's probe observer to the scenario's config.
// When withInvariants armed a checker, the checker becomes the
// observer and chains to the probe, so standard metrics still flow.
func (e *env) start(cfg core.Config) *core.Distributor {
	cfg.Seed = e.spec.Seed
	cfg.SwitchCosts = &e.costs
	cfg.Observer = e.pr
	if e.chk != nil {
		cfg.Observer = e.chk
	}
	cfg.Telemetry = e.tel
	e.d = core.New(cfg)
	e.k = e.d.Kernel()
	if e.chk != nil {
		e.chk.Bind(e.k, e.d.Manager(), e.d.Scheduler())
		e.chk.EnableTelemetry(e.tel)
	}
	return e.d
}

// startKernel assembles a bare kernel for comparator scenarios that
// run a baseline scheduler directly, without a Distributor.
func (e *env) startKernel() *sim.Kernel {
	e.k = sim.NewKernel(sim.Config{Seed: e.spec.Seed, Costs: e.costs})
	e.k.EnableTelemetry(e.tel.Reg())
	return e.k
}

// withInvariants arms the runtime guarantee checker for this run.
// Call it before start; violations are mirrored into the run's event
// log and counted in RunMetrics.Violations.
func (e *env) withInvariants() {
	e.chk = invariant.New(e.pr)
	e.chk.LogTo(&e.flog)
}

// run drives the single-node substrate to the horizon — to is the
// Distributor's Run or a comparator's RunUntil — and folds what the
// kernel, probe, checker, event log and telemetry registry measured
// into the run metrics.
func (e *env) run(to func(ticks.Ticks)) error {
	to(e.spec.Horizon)
	if info, ok := e.k.Stalled(); ok {
		return fmt.Errorf("kernel livelock guard tripped at t=%d after %d same-tick events",
			int64(info.At), info.Events)
	}
	st := e.k.Stats()
	e.m.Utilization = st.Utilization()
	e.m.SwitchOverhead = st.SwitchOverheadFraction()
	e.m.InterruptLoad = st.InterruptLoadFraction()
	for _, a := range e.admits {
		// Tasks that never started (admitted just before the horizon)
		// contribute no admission-latency sample.
		if start, ok := e.pr.started(a.id); ok {
			e.m.AdmissionMS = append(e.m.AdmissionMS, (start - a.at).MillisecondsF())
		}
	}
	if e.chk != nil {
		e.chk.Finish()
		e.m.Violations = int64(len(e.chk.Violations()))
	}
	if e.d != nil {
		e.m.Degradations = int64(len(e.d.Manager().DegradationEvents()))
	}
	e.m.FaultsInjected = int64(e.flog.KindPrefixCount("fault."))
	e.m.Telemetry = e.tel.Reg().Snapshot()
	e.m.Misses = e.m.Telemetry.CounterValue("sched.deadline.misses")
	return nil
}

// missesOverPeriods reports the run's quality as guarantee violations
// per period start of the tasks it admitted — the figure for scenarios
// whose claim is "no missed deadlines", not a media loss count.
func (e *env) missesOverPeriods() {
	var periods int64
	for _, a := range e.admits {
		if st, ok := e.d.Stats(a.id); ok {
			periods += st.Periods
		}
	}
	e.m.Loss, e.m.Opportunities = e.m.Misses, periods
}

// admit requests admittance, recording the request time for admission
// latency (quiescent tasks are recorded at Wake instead — see wakeAt)
// and counting denials.
func (e *env) admit(t *task.Task) (task.ID, error) {
	id, err := e.d.RequestAdmittance(t)
	if err != nil {
		e.m.Denied++
		return task.NoID, err
	}
	if !t.StartQuiescent {
		e.admits = append(e.admits, admitRec{id: id, at: e.d.Now()})
	}
	return id, nil
}

// admitAll admits the tasks in order, stopping at the first denial.
func (e *env) admitAll(tasks ...*task.Task) error {
	for _, t := range tasks {
		if _, err := e.admit(t); err != nil {
			return err
		}
	}
	return nil
}

// wakeAt schedules a quiescent task's return to service — it cannot be
// denied (§5.3). Its admission latency clock starts at the wake (a
// quiescent task consumes nothing on purpose, so measuring from
// RequestAdmittance would time the phone not ringing).
func (e *env) wakeAt(at ticks.Ticks, id task.ID) {
	e.d.At(at, func() {
		if err := e.d.Wake(id); err != nil {
			panic(fmt.Sprintf("sweep: wake quiescent task: %v", err))
		}
		e.admits = append(e.admits, admitRec{id: id, at: e.d.Now()})
	})
}

// server admits a Sporadic Server, recording it like admit.
func (e *env) server(name string, list task.ResourceList, alwaysOvertime bool) (task.ID, error) {
	id, err := e.d.AddSporadicServer(name, list, alwaysOvertime)
	if err != nil {
		e.m.Denied++
		return task.NoID, err
	}
	e.admits = append(e.admits, admitRec{id: id, at: e.d.Now()})
	return id, nil
}
