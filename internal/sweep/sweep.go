// Package sweep is the Monte-Carlo experiment engine over the
// Resource Distributor: it expands a matrix of (scenario ×
// switch-cost model × policy × seed) into independent simulation
// runs, executes them on a bounded worker pool — one single-goroutine
// sim.Kernel per run, sharing no state (see the isolation audit in
// sweep_test.go; the one thing a worker's runs hand on is the emptied
// storage of its fleet.Arena and registry, docs/DETERMINISM.md) — and
// folds the per-run measurements into mergeable per-cell aggregates:
// deadline misses, unplanned-loss rate, utilization, switch-overhead
// fraction, interrupt load, denied admissions and admission-latency
// percentiles.
//
// What a cell is is decided in one place, the scenario registry
// (registry.go): each scenario declares its family and the one Axis it
// varies, and a cell's "policy" is a value of that axis, so every cell
// is a distinct experiment (rdsweep -list prints the table). Every
// scenario runs on one harness (env.go); every per-run quantity a cell
// reports is declared once, in the quantities table (report.go).
//
// The aggregates are worker-count invariant by construction. Float
// addition is not associative, so the engine never lets the
// nondeterministic job→worker assignment decide a summation order:
// workers only write RunMetrics into an index-addressed slice, and
// aggregation happens afterwards in fixed-size chunks merged in spec
// order (Summary.Merge / Histogram.Merge). `rdsweep -workers 1` and
// `rdsweep -workers 16` produce byte-identical JSON.
package sweep

import (
	"fmt"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"

	"repro/internal/metrics"
	"repro/internal/telemetry"
	"repro/internal/ticks"
)

// RunSpec identifies one simulation run of the matrix.
type RunSpec struct {
	Index     int    // position in the expanded matrix
	Scenario  string // registered scenario name
	CostModel string // registered switch-cost model name
	Policy    string // a value of the scenario's axis (PolicyInvent, ...)
	Seed      uint64
	Horizon   ticks.Ticks
}

// RunMetrics is what one run reports back to the aggregator. A run
// that failed carries only Err; its measurements are excluded from
// the cell summaries (but counted in Cell.Errors).
type RunMetrics struct {
	Err string

	Misses        int64 // deadline misses (guarantee violations)
	Loss          int64 // scenario-defined unplanned quality loss events
	Opportunities int64 // denominator for Loss (frames, periods, ...)
	Denied        int64 // admission requests the RM turned away

	Utilization    float64 // busy / elapsed
	SwitchOverhead float64 // switch ticks / elapsed (§6.1's 0.7% figure)
	InterruptLoad  float64 // interrupt ticks / elapsed (§5.2 reserve check)

	// Violations counts runtime guarantee breaches found by the
	// invariant checker (armed by fault scenarios; 0 elsewhere).
	Violations int64
	// Degradations counts recorded overload-pressure decisions — every
	// capacity the run shed is a policy-box decision, not an accident.
	Degradations int64
	// FaultsInjected counts the fault events the run's armed injectors
	// actually fired.
	FaultsInjected int64

	// RecoveryMS samples crash→re-placement latency, per recovery
	// (fleet-* scenarios; empty elsewhere). The fleet layer's event
	// counts — spillovers, retries, migrations, restarts, flight dumps —
	// are fleet.* counters in Telemetry.
	RecoveryMS metrics.Summary

	// CompletedPeriods counts periods whose work finished on time —
	// the comparator family's headline figure alongside Misses (RD
	// scenarios leave it 0; their quality channel is Loss).
	CompletedPeriods int64

	AdmissionMS []float64 // admittance→first period, per admitted task, ms

	// Telemetry is the run's frozen instrument registry; cells merge
	// these in spec order (worker-count invariant, like every other
	// aggregate here) and embed the merged snapshot in their manifest.
	Telemetry telemetry.Snapshot
}

// LossRate reports Loss/Opportunities, or 0 when nothing was at stake.
func (r *RunMetrics) LossRate() float64 {
	if r.Opportunities == 0 {
		return 0
	}
	return float64(r.Loss) / float64(r.Opportunities)
}

// Matrix describes a sweep: the cross product of its dimensions.
type Matrix struct {
	Scenarios  []string // scenario names; nil means all registered
	CostModels []string // cost-model names; nil means DefaultCostModels
	Policies   []string // policy values; nil means each scenario's own
	Seeds      []uint64 // one run per seed per cell
	Horizon    ticks.Ticks
}

// DefaultHorizon is the simulated duration per run when the matrix
// does not specify one: two virtual seconds.
const DefaultHorizon = 2 * ticks.PerSecond

// SeedRange returns n consecutive seeds starting at base — the usual
// way to populate Matrix.Seeds. (Runs decorrelate internally via
// sim.SplitSeed substreams, so consecutive seeds are fine.)
func SeedRange(base uint64, n int) []uint64 {
	out := make([]uint64, n)
	for i := range out {
		out[i] = base + uint64(i)
	}
	return out
}

// Specs validates the matrix and expands it into the run list, in
// deterministic order: scenario, then cost model, then policy, then
// seed. A scenario contributes the requested policies that lie on its
// axis (all of its own when none are named), so "all policies" is a
// request, not a constraint. A name given twice — directly, or as a
// family plus one of its members — is an error: it would run the cell
// twice and double its run count.
func (m Matrix) Specs() ([]RunSpec, error) {
	scs := expandFamilies(m.Scenarios)
	if len(scs) == 0 {
		scs = ScenarioNames()
	}
	cms := m.CostModels
	if len(cms) == 0 {
		cms = DefaultCostModels()
	}
	for _, dim := range []struct {
		what        string
		names, have []string
	}{
		{"scenario", scs, ScenarioNames()},
		{"cost model", cms, CostModelNames()},
		{"policy", m.Policies, AllPolicies()},
	} {
		for i, n := range dim.names {
			if !slices.Contains(dim.have, n) {
				return nil, fmt.Errorf("sweep: unknown %s %q (have %v)", dim.what, n, dim.have)
			}
			if slices.Contains(dim.names[:i], n) {
				return nil, fmt.Errorf("sweep: %s %q is named twice in the matrix", dim.what, n)
			}
		}
	}
	if len(m.Seeds) == 0 {
		return nil, fmt.Errorf("sweep: matrix has no seeds")
	}
	horizon := m.Horizon
	if horizon <= 0 {
		horizon = DefaultHorizon
	}

	var specs []RunSpec
	for _, scName := range scs {
		sc, _ := scenarioByName(scName)
		pols := m.Policies
		if len(pols) == 0 {
			pols = sc.Policies
		}
		for _, cm := range cms {
			for _, pol := range pols {
				if !slices.Contains(sc.Policies, pol) {
					continue
				}
				for _, seed := range m.Seeds {
					specs = append(specs, RunSpec{
						Index:     len(specs),
						Scenario:  sc.Name,
						CostModel: cm,
						Policy:    pol,
						Seed:      seed,
						Horizon:   horizon,
					})
				}
			}
		}
	}
	if len(specs) == 0 {
		return nil, fmt.Errorf("sweep: matrix expands to zero runs (no scenario stages the requested policies)")
	}
	return specs, nil
}

// Options controls sweep execution.
type Options struct {
	// Workers bounds the worker pool; <= 0 selects GOMAXPROCS. The
	// cores the pool leaves idle, GOMAXPROCS / min(Workers, runs) per
	// worker, advance the nodes of its fleet clusters. The result
	// depends on neither value.
	Workers int

	// Progress, when non-nil, is called after each run completes with
	// (done, total). Calls come from worker goroutines.
	Progress func(done, total int)
}

// aggChunk is the fixed aggregation granularity: runs are folded into
// partial cells in chunks of this many specs, and the partials are
// merged in spec order. The chunk size is a constant — never derived
// from the worker count — so the float accumulation order is a pure
// function of the spec list.
const aggChunk = 64

// Run executes the matrix and returns the aggregated result.
func Run(m Matrix, opt Options) (*Result, error) {
	specs, err := m.Specs()
	if err != nil {
		return nil, err
	}

	workers := opt.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > len(specs) {
		workers = len(specs)
	}
	// A fleet cluster advances its nodes on the cores this pool leaves
	// idle.
	clusterWorkers := max(1, runtime.GOMAXPROCS(0)/workers)

	// Each worker claims the next unclaimed spec index until none are
	// left; out[i] is written by whichever worker claimed i, so the
	// result does not depend on who ran what. A worker builds every run
	// in storage of its own: a run folds its registry, or its cluster's
	// report, before it returns, so the next run is free to recycle it.
	out := make([]RunMetrics, len(specs))
	var done sync.WaitGroup
	var next, completed atomic.Int64
	done.Add(workers)
	for n := 0; n < workers; n++ {
		go func() {
			defer done.Done()
			w := newWorker()
			w.clusterWorkers = clusterWorkers
			for i := next.Add(1) - 1; i < int64(len(specs)); i = next.Add(1) - 1 {
				out[i] = runOne(specs[i], w)
				if opt.Progress != nil {
					opt.Progress(int(completed.Add(1)), len(specs))
				}
			}
		}()
	}
	done.Wait()

	// Deterministic aggregation: fixed chunks, merged in spec order.
	total := newResult()
	for lo := 0; lo < len(specs); lo += aggChunk {
		hi := lo + aggChunk
		if hi > len(specs) {
			hi = len(specs)
		}
		part := newResult()
		for i := lo; i < hi; i++ {
			part.add(specs[i], &out[i])
		}
		total.Merge(part)
	}
	total.TotalRuns = len(specs)
	return total, nil
}

// runOne executes a single run in isolation, built in w's storage. A
// panic inside the simulation is captured as the run's Err rather than
// killing the sweep.
func runOne(spec RunSpec, w *worker) (out RunMetrics) {
	defer func() {
		if r := recover(); r != nil {
			out = RunMetrics{Err: fmt.Sprintf("panic: %v", r)}
		}
	}()
	e, err := newEnv(spec, w)
	if err == nil {
		err = e.sc.run(e)
	}
	if err != nil {
		return RunMetrics{Err: err.Error()}
	}
	return e.m
}
