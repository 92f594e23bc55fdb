package sweep

import (
	"bytes"
	"fmt"
	"runtime"
	"sync"
	"testing"

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

// goroutineID is the calling goroutine's ID, from its stack header.
func goroutineID() string {
	var buf [32]byte
	return string(bytes.Fields(buf[:runtime.Stack(buf[:], false)])[1])
}

// TestSweepHandsIdleCoresToClusters: a sweep's fleet clusters advance
// their nodes on the cores its own pool leaves idle — GOMAXPROCS over
// the pool size, counted after the pool is clamped to the run count. A
// cluster's pool size is observed as the number of goroutines that ran
// its nodes' bodies.
func TestSweepHandsIdleCoresToClusters(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	advancers := make(chan int, 8)
	withProbe(t, func(e *env) error {
		var mu sync.Mutex
		seen := map[string]bool{}
		err := probeFleet(e, 4, func(int) task.Body {
			return task.BodyFunc(func(ctx task.RunContext) task.RunResult {
				mu.Lock()
				seen[goroutineID()] = true
				mu.Unlock()
				return task.RunResult{Used: ctx.Span, Op: task.OpYield, Completed: true}
			})
		})
		advancers <- len(seen)
		return err
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
			if got := <-advancers; got != tc.clusterWorkers {
				t.Errorf("Workers: %d over %d runs: a cluster's nodes ran on %d goroutines, want %d",
					tc.workers, tc.seeds, got, tc.clusterWorkers)
			}
		}
	}
}

// TestClusterPanicIsTheOneWorkerPanic: a node body that panics in a
// helper's range is a failed run, not a dead process, and the run's Err
// is the panic a one-worker run records. Nodes 3 and 5 panic in the same
// epoch, at three workers in two helpers' ranges; node 3 is the one a
// one-worker run reaches first. Every helper has exited when the run
// returns.
func TestClusterPanicIsTheOneWorkerPanic(t *testing.T) {
	withProbe(t, func(e *env) error {
		return probeFleet(e, 6, func(node int) task.Body {
			return task.BodyFunc(func(ctx task.RunContext) task.RunResult {
				if (node == 3 || node == 5) && ctx.Now >= 30*ms {
					panic(fmt.Sprintf("node %d body", node))
				}
				return task.RunResult{Used: ctx.Span, Op: task.OpYield, Completed: true}
			})
		})
	})
	spec := RunSpec{Scenario: "probe", CostModel: "zero", Policy: PolicyFleetFirstFit, Seed: 1, Horizon: 100 * ms}
	for _, workers := range []int{1, 3} {
		before := runtime.NumGoroutine()
		w := newWorker()
		w.clusterWorkers = workers
		if got, want := runOne(spec, w).Err, "panic: node 3 body"; got != want {
			t.Errorf("clusterWorkers=%d: Err %q, want %q", workers, got, want)
		}
		// A joined helper has run its last line; let it finish exiting.
		n := runtime.NumGoroutine()
		for i := 0; n > before && i < 1000; i++ {
			runtime.Gosched()
			n = runtime.NumGoroutine()
		}
		if n != before {
			t.Errorf("clusterWorkers=%d: %d goroutines after the run, %d before", workers, n, before)
		}
	}
}
