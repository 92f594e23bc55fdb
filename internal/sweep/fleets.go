package sweep

// The fleet scenario family: each member stands up an internal/fleet
// cluster — every node a full Resource Distributor — and drives it
// with an open-loop arrival stream under a placement policy, with
// node-level faults armed on top. The quality contract extends the
// single-node fault family to fleet scope: an admission either holds
// a guarantee somewhere, completes, or is recorded as a rejection or
// a degradation — the cluster ledger (and its conservation audit)
// forbids silent loss, and RunMetrics.Violations counts any breach.
//
// The fleet-* scenarios vary the placement axis, so one matrix
// compares first-fit, least-loaded and hashed round-robin under
// identical arrival streams and fault schedules.
//
// Arrival randomness comes from streamFleet; node seeds, backoff
// jitter and injector schedules derive from their own documented
// substreams (see docs/DETERMINISM.md), so a fleet run replays
// byte-identically from its spec at any cluster worker count.

import (
	"fmt"
	"strconv"

	"repro/internal/fault"
	"repro/internal/fleet"
	"repro/internal/sim"
	"repro/internal/task"
	"repro/internal/ticks"
)

// streamFleet seeds the fleet scenarios' arrival-stream generator
// (task periods, level menus, lifetimes, arrival times).
const streamFleet = 9

var placements = map[string]fleet.Placement{
	PolicyFleetFirstFit:    fleet.FirstFit,
	PolicyFleetLeastLoaded: fleet.LeastLoaded,
	PolicyFleetRRHash:      fleet.RoundRobinHash,
}

// fleetArrivals is what a fleet run submits its arrivals under, the
// same in every run, so a sweep worker builds each once: their names,
// "fl00000" onwards, and their resource lists, one per period and top
// level. Arrivals that draw the same pair share one list, which nothing
// writes: the node RM that admits a task keeps its own copy.
type fleetArrivals struct {
	names  []string
	lists  map[fleetLevels]task.ResourceList
	bodies []fleetBody // a run's arrivals and their bodies, emptied per run
}

// fleetLevels names an arrival's list: its period and top level.
type fleetLevels struct {
	period ticks.Ticks
	top    int
}

// name is the i-th arrival's name: "fl" and i in at least five digits.
func (fa *fleetArrivals) name(i int) string {
	for n := len(fa.names); n <= i; n++ {
		var buf [24]byte
		b := append(buf[:0], "fl"...)
		for p := 10000; p > 1 && n < p; p /= 10 {
			b = append(b, '0')
		}
		fa.names = append(fa.names, string(strconv.AppendInt(b, int64(n), 10)))
	}
	return fa.names[i]
}

// list is the two-level list of an arrival of the given period: top
// percent of the CPU, or half of that rounded up.
func (fa *fleetArrivals) list(period ticks.Ticks, top int) task.ResourceList {
	key := fleetLevels{period, top}
	if l, ok := fa.lists[key]; ok {
		return l
	}
	if fa.lists == nil {
		fa.lists = make(map[fleetLevels]task.ResourceList)
	}
	l := task.UniformLevels(period, "Fleet", top, (top+1)/2)
	fa.lists[key] = l
	return l
}

// body takes a fleetBody of the given life from the slab. Should append
// move the slab, a body already taken stays where it is, live through
// its pointer; only the copy left behind, which nothing reads, is stale.
func (fa *fleetArrivals) body(life int) *fleetBody {
	fa.bodies = append(fa.bodies, fleetBody{life: life, slab: fa})
	return &fa.bodies[len(fa.bodies)-1]
}

// fleetBody is an arrival's body source and each body it builds: a body
// consumes its grant and exits after life periods, so fleet capacity
// churns and retries have something to win.
type fleetBody struct {
	life, periods int
	slab          *fleetArrivals
}

// NewBody is a fresh body of b's life, from b's slab.
func (b *fleetBody) NewBody() task.Body { return b.slab.body(b.life) }

// Run implements task.Body.
func (b *fleetBody) Run(ctx task.RunContext) task.RunResult {
	if ctx.NewPeriod {
		if b.periods++; b.periods > b.life {
			return task.RunResult{Op: task.OpExit}
		}
	}
	return task.RunResult{Used: ctx.Span, Op: task.OpYield, Completed: true}
}

// runFleet is the family's shared harness: build the cluster with
// the spec's seed, cost model and placement policy, arm the
// node-level injectors, submit an open-loop arrival stream sized per
// node, run to the horizon, and fold the cluster report into the run
// metrics, with fleet quality as recorded losses (deadline misses plus
// crash losses the cluster could not re-place) over total period
// starts. A stalled or init-failed node invalidates the run.
func (e *env) runFleet(cfg fleet.Config, perNode, topPct int, injs ...fault.NodeInjector) error {
	cfg.Seed = e.spec.Seed
	cfg.SwitchCosts = &e.costs
	cfg.Placement = placements[e.spec.Policy]
	cfg.Workers = max(1, e.clusterWorkers)
	cfg.SpanLog = e.spanLog
	cfg.Invariants = true
	c, err := fleet.NewIn(&e.w.arena, cfg)
	if err != nil {
		return err
	}
	if len(injs) > 0 {
		if err := fault.ArmFleet(c, e.spec.Seed, &e.flog, injs...); err != nil {
			return err
		}
	}

	// Open-loop arrivals over the first three quarters of the horizon:
	// mixed periods, two-level lists (something to shed), finite
	// lifetimes (capacity churns, so backoff retries can succeed).
	e.w.arrivals.bodies = e.w.arrivals.bodies[:0]
	rng := sim.NewRNG(sim.SplitSeed(e.spec.Seed, streamFleet))
	periodChoices := []int64{5, 10, 20, 40} // ms
	window := uint64(e.spec.Horizon * 3 / 4)
	for i := 0; i < cfg.Nodes*perNode; i++ {
		period := ticks.FromMilliseconds(periodChoices[rng.Intn(len(periodChoices))])
		top := 8 + rng.Intn(topPct-7) // top level 8..topPct percent
		if err := c.Submit(fleet.Admission{
			At:   ticks.Ticks(rng.Uint64() % window),
			Name: e.w.arrivals.name(i),
			List: e.w.arrivals.list(period, top),
			Body: e.w.arrivals.body(10 + rng.Intn(40)),
		}); err != nil {
			return err
		}
	}

	rep := c.Run(e.spec.Horizon)
	e.cluster, e.report = c, rep
	if len(rep.Stalled) > 0 {
		// The run is invalid, but RunFleetCluster's caller still gets
		// the cluster and the report that says so.
		e.m = RunMetrics{Err: rep.Stalled[0]}
		return nil
	}
	e.m.Misses = rep.Misses
	e.m.Denied = rep.Rejected
	e.m.Utilization = rep.Utilization
	e.m.SwitchOverhead = rep.SwitchOverhead
	e.m.InterruptLoad = rep.InterruptLoad
	e.m.Violations = rep.Violations
	e.m.Degradations = rep.Degradations
	// Arm-time events land in the run's own log, fire-time events in
	// the cluster's merged log.
	e.m.FaultsInjected = rep.FaultsInjected + int64(e.flog.KindPrefixCount("fault."))
	e.m.RecoveryMS.Merge(&rep.RecoveryMS)
	e.m.Telemetry = rep.Telemetry
	e.m.Loss = rep.Misses + rep.LostRecorded
	e.m.Opportunities = rep.Periods
	return nil
}

// RunFleetCluster executes one fleet-family spec as a live cluster
// with full per-node span logging and returns the cluster alongside
// its report, so the caller can extract rdtel/v2 manifests
// (Cluster.Manifest, CoordManifest, NodeManifest). workers sets the
// cluster's node-advance pool size; it never changes any result byte.
// This is the engine behind rdsweep -cluster-manifest.
func RunFleetCluster(spec RunSpec, workers int) (*fleet.Cluster, *fleet.Report, error) {
	// The cluster outlives this call, so nothing else may build in its
	// storage.
	e, err := newEnv(spec, newWorker())
	if err != nil {
		return nil, nil, err
	}
	if e.sc.Family != FleetFamily {
		return nil, nil, fmt.Errorf("sweep: scenario %q is not a fleet scenario", spec.Scenario)
	}
	e.clusterWorkers, e.spanLog = workers, true
	if err := e.sc.run(e); err != nil {
		return nil, nil, err
	}
	return e.cluster, e.report, nil
}

func runFleetSpill(e *env) error {
	// No faults: the pressure is pure arithmetic — more minimum
	// demand than fleet capacity, so placement order and the retry
	// loop decide who gets a guarantee.
	return e.runFleet(fleet.Config{Nodes: 16}, 14, 50)
}

func runFleetSurge(e *env) error {
	h := e.spec.Horizon
	return e.runFleet(
		fleet.Config{
			Nodes:                   48,
			InterruptReservePercent: 2,
			GovernorInterval:        10 * ms,
		},
		6, 35,
		fault.NodeStorm{
			Storm: fault.Storm{
				At:      h / 5,
				Bursts:  10,
				Every:   h / 100,
				Count:   10,
				Service: 400 * ticks.PerMicrosecond,
			},
			FirstNode: 0,
			Nodes:     16,
			Stagger:   h / 200,
		})
}

func runFleetCrash(e *env) error {
	h := e.spec.Horizon
	return e.runFleet(
		fleet.Config{
			Nodes:                   120,
			InterruptReservePercent: 2,
			GovernorInterval:        10 * ms,
		},
		8, 35,
		fault.NodeCrash{Node: -1, At: h / 8, Cycles: 6, MeanUp: h / 6, MeanDown: h / 16},
		fault.NodeStorm{
			Storm: fault.Storm{
				At:      h / 3,
				Bursts:  6,
				Every:   h / 50,
				Count:   12,
				Service: 400 * ticks.PerMicrosecond,
			},
			FirstNode: 0,
			Nodes:     20,
			Stagger:   h / 100,
		})
}
