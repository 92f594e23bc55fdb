package sweep

import (
	"fmt"
	"runtime"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/fleet"
	"repro/internal/task"
)

// withProbe registers a fleet scenario named "probe", staged by run, for
// the rest of the test.
func withProbe(t *testing.T, run func(e *env) error) {
	saved := scenarios
	t.Cleanup(func() { scenarios = saved })
	scenarios = append(scenarios[:len(saved):len(saved)], Scenario{
		Name: "probe", Axis: AxisPlacement, Policies: []string{PolicyFleetFirstFit}, run: run,
	})
}

// probeFleet runs a small fleet whose every node holds one resident task
// with body body(node).
func probeFleet(e *env, nodes int, body func(node int) task.Body) error {
	return e.runFleet(fleet.Config{Nodes: nodes, NodeInit: func(d *core.Distributor, node int) error {
		_, err := d.RequestAdmittance(&task.Task{
			Name: "probe", List: task.SingleLevel(10*ms, ms, "Probe"), Body: body(node),
		})
		return err
	}}, 1, 10)
}

// TestSweepHandsIdleCoresToClusters: a sweep's fleet clusters advance
// their nodes on the cores its own pool leaves idle — GOMAXPROCS over
// the pool size, counted after the pool is clamped to the run count.
// The probe reads the pool size its env hands the cluster; that a pool
// of W workers advances nodes on W goroutines is fleet's
// TestPoolAdvancesOnEveryWorker.
func TestSweepHandsIdleCoresToClusters(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	poolSizes := make(chan int, 8)
	withProbe(t, func(e *env) error {
		poolSizes <- e.clusterWorkers
		return probeFleet(e, 4, func(int) task.Body {
			return task.BodyFunc(func(ctx task.RunContext) task.RunResult {
				return task.RunResult{Used: ctx.Span, Op: task.OpYield, Completed: true}
			})
		})
	})
	for _, tc := range []struct{ workers, seeds, clusterWorkers int }{
		{1, 2, 2},
		{2, 2, 1},
		{4, 1, 2}, // one run: a pool of one, and both cores to its cluster
	} {
		res, err := Run(Matrix{
			Scenarios: []string{"probe"}, CostModels: []string{"zero"},
			Seeds: SeedRange(1, tc.seeds), Horizon: 100 * ms,
		}, Options{Workers: tc.workers})
		if err != nil {
			t.Fatal(err)
		}
		if n := res.Errors(); n != 0 {
			t.Fatalf("Workers: %d: %d failed runs", tc.workers, n)
		}
		for i := 0; i < tc.seeds; i++ {
			if got := <-poolSizes; got != tc.clusterWorkers {
				t.Errorf("Workers: %d over %d runs: a cluster was handed %d pool workers, want %d",
					tc.workers, tc.seeds, got, tc.clusterWorkers)
			}
		}
	}
}

// TestClusterPanicIsTheOneWorkerPanic: a node body that panics on a
// helper is a failed run, not a dead process, and the run's Err is the
// panic a one-worker run records. Two nodes of six panic in the same
// epoch; the lower-indexed is the one a one-worker run reaches first.
// Node 3 is the tail of a range at three workers, node 2 at two and
// four: the node a thief claims first. Every helper has exited when the
// run returns.
func TestClusterPanicIsTheOneWorkerPanic(t *testing.T) {
	var panicking [2]int
	withProbe(t, func(e *env) error {
		return probeFleet(e, 6, func(node int) task.Body {
			return task.BodyFunc(func(ctx task.RunContext) task.RunResult {
				if (node == panicking[0] || node == panicking[1]) && ctx.Now >= 30*ms {
					panic(fmt.Sprintf("node %d body", node))
				}
				return task.RunResult{Used: ctx.Span, Op: task.OpYield, Completed: true}
			})
		})
	})
	spec := RunSpec{Scenario: "probe", CostModel: "zero", Policy: PolicyFleetFirstFit, Seed: 1, Horizon: 100 * ms}
	for _, panicking = range [][2]int{{3, 5}, {2, 4}} {
		for _, workers := range []int{1, 2, 3, 4} {
			before := runtime.NumGoroutine()
			w := newWorker()
			w.clusterWorkers = workers
			if got, want := runOne(spec, w).Err, fmt.Sprintf("panic: node %d body", panicking[0]); got != want {
				t.Errorf("nodes %v, clusterWorkers=%d: Err %q, want %q", panicking, workers, got, want)
			}
			// A joined helper has run its last line; let it finish exiting,
			// on a thread the OS may have descheduled. One that was never
			// joined parks for good.
			n := runtime.NumGoroutine()
			for deadline := time.Now().Add(5 * time.Second); n > before && time.Now().Before(deadline); {
				runtime.Gosched()
				n = runtime.NumGoroutine()
			}
			if n > before {
				t.Errorf("nodes %v, clusterWorkers=%d: %d goroutines after the run, %d before", panicking, workers, n, before)
			}
		}
	}
}
