package fleet

import (
	"fmt"
	"runtime"
	"testing"
	"unsafe"

	"repro/internal/core"
	"repro/internal/sim"
	"repro/internal/task"
	"repro/internal/telemetry"
)

// residentConfig is a fleet of n nodes under the paper's switch costs
// with the invariant checker armed and four 10 % residents per node —
// the cluster benchmark/'s fleet.build_ms / fleet.epoch_us drivers
// build — so an epoch advances real scheduling work and the barrier
// finds an idle coordinator.
func residentConfig(n int, p Placement) Config {
	costs := sim.PaperSwitchCosts()
	return Config{
		Nodes: n, Seed: 1, Workers: 1, Placement: p, SwitchCosts: &costs, Invariants: true,
		NodeInit: func(d *core.Distributor, node int) error {
			for j := 0; j < 4; j++ {
				if _, err := d.RequestAdmittance(&task.Task{
					Name: fmt.Sprintf("r%d", j),
					List: task.SingleLevel(10*ms, ms, "R"),
					Body: task.Busy(),
				}); err != nil {
					return err
				}
			}
			return nil
		},
	}
}

// loadedCluster is a least-loaded resident cluster whose node i
// additionally holds i%7 one-percent tasks, so loads differ and tie.
func loadedCluster(tb testing.TB, n int) *Cluster {
	c, err := New(residentConfig(n, LeastLoaded))
	if err != nil {
		tb.Fatal(err)
	}
	for i, nd := range c.nodes {
		for j := 0; j < i%7; j++ {
			if _, err := nd.d.RequestAdmittance(&task.Task{
				Name: "extra", List: task.UniformLevels(10*ms, "X", 1), Body: task.Busy(),
			}); err != nil {
				tb.Fatal(err)
			}
		}
	}
	return c
}

// stepPlacement changes one node's load — it trades Distributors with
// a spare cluster's node, which allocates nothing — and asks for the
// offer order, as one placement followed by the next scan does.
func stepPlacement(c, spare *Cluster, i int) []int {
	a, b := c.nodes[i%len(c.nodes)], spare.nodes[i%len(spare.nodes)]
	a.d, b.d = b.d, a.d
	return c.placementOrder(nil)
}

var benchOrder []int

// BenchmarkPlacementOrder measures one least-loaded placement scan's
// offer order over 120 nodes after one node's load has changed.
func BenchmarkPlacementOrder(b *testing.B) {
	c, spare := loadedCluster(b, 120), loadedCluster(b, 8)
	benchOrder = stepPlacement(c, spare, 0) // sizes the order and load scratch
	b.ReportAllocs()
	b.ResetTimer()
	for i := 1; i <= b.N; i++ {
		benchOrder = stepPlacement(c, spare, i)
	}
}

// BenchmarkClusterBuild measures fleet.New for 120 nodes: what every
// fleet-crash cell pays before its first epoch.
func BenchmarkClusterBuild(b *testing.B) {
	cfg := residentConfig(120, FirstFit)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := New(cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkClusterRebuild measures fleet.NewIn in an arena that has
// built the same fleet before: what a sweep worker's second and later
// fleet cells pay, at the node counts of fleet-spill and fleet-crash.
func BenchmarkClusterRebuild(b *testing.B) {
	for _, n := range []int{16, 120} {
		b.Run(fmt.Sprintf("nodes=%d", n), func(b *testing.B) {
			cfg := residentConfig(n, FirstFit)
			a := new(Arena)
			if _, err := NewIn(a, cfg); err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := NewIn(a, cfg); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// TestClusterRebuildAllocs: the second fleet built in an arena
// allocates none of the ring storage the first one did — 121 span
// rings and event rings, three quarters of what a fleet-crash cluster
// allocates to exist.
func TestClusterRebuildAllocs(t *testing.T) {
	cfg := residentConfig(120, FirstFit)
	a := new(Arena)
	build := func() uint64 {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		if _, err := NewIn(a, cfg); err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&after)
		return after.TotalAlloc - before.TotalAlloc
	}
	cold, warm := build(), build()
	rings := uint64(cfg.Nodes+1) * uint64(telemetry.DefaultFlightSpans*unsafe.Sizeof(telemetry.Span{})+
		telemetry.DefaultFlightEvents*unsafe.Sizeof(telemetry.LogEvent{}))
	const slack = 64 << 10 // other goroutines of the test binary
	if warm+rings > cold+slack {
		t.Fatalf("cold build allocated %d B, warm rebuild %d B: less than the %d B of rings was reused", cold, warm, rings)
	}
}

// BenchmarkFleetEpoch measures one epoch of a resident cluster: every
// node advanced 10 ms on the pool, then the coordinator's barrier.
func BenchmarkFleetEpoch(b *testing.B) {
	for _, workers := range []int{1, 2} {
		for _, n := range []int{16, 120} {
			name := fmt.Sprintf("nodes=%d", n)
			if workers > 1 {
				name += fmt.Sprintf("/workers=%d", workers)
			}
			b.Run(name, func(b *testing.B) {
				cfg := residentConfig(n, FirstFit)
				cfg.Workers = workers
				c, err := New(cfg)
				if err != nil {
					b.Fatal(err)
				}
				c.pool.start(c.nodes, c.cfg.Workers)
				defer c.pool.stop()
				c.barrier(0)
				// Past every node's first periods: the tasks' first grants,
				// the checker's per-task records and the telemetry
				// instruments are set-up, not epoch work.
				for i := 0; i < 20; i++ {
					c.now += epoch
					c.pool.advance(c.now)
					c.barrier(c.now)
				}
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					c.now += epoch
					c.pool.advance(c.now)
					c.barrier(c.now)
				}
			})
		}
	}
}
