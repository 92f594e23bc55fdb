package fleet

import (
	"fmt"
	"runtime"
	"testing"
	"unsafe"

	"repro/internal/core"
	"repro/internal/invariant"
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

// TestClusterBuildAllocsPerNode: a cold fleet.New of 120 resident nodes
// allocates at most 70 times per node — a node shell's instruments come
// from its registry's chunks, not one heap object each.
func TestClusterBuildAllocsPerNode(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts differ under the race detector")
	}
	cfg := residentConfig(120, FirstFit)
	n := testing.AllocsPerRun(3, func() {
		if _, err := New(cfg); err != nil {
			t.Fatal(err)
		}
	})
	if perNode := n / float64(cfg.Nodes); perNode > 70 {
		t.Errorf("a cold 120-node build allocates %v times, %.1f per node, want at most 70", n, perNode)
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

// TestNodeRebuildAllocs pins that rebuilding a warm node allocates
// nothing: at a cluster reset (the shell emptied, the node built at time
// zero) and at a crash→restart (the incarnation retired, the next built
// at cluster time), invariants and governor on as in fleet-crash, four
// residents admitted by NodeInit from descriptors the test keeps (the RM
// copies what it admits). Each new incarnation then runs its first five
// periods, its tasks starting and rolling over the queues, and grows
// nothing either: the scheduler keeps its task table and queues, the RM
// its task table and correlation scratch, the Distributor its governor.
// A cold build, on a shell with no storage, allocates.
func TestNodeRebuildAllocs(t *testing.T) {
	residents := make([]task.Task, 4)
	for j := range residents {
		residents[j] = task.Task{Name: fmt.Sprintf("r%d", j), List: task.SingleLevel(10*ms, ms, "R"), Body: task.Busy()}
	}
	c, err := New(Config{Nodes: 1, Seed: 1, Workers: 1, InterruptReservePercent: 2, GovernorInterval: 10 * ms, Invariants: true,
		NodeInit: func(d *core.Distributor, _ int) error {
			for j := range residents {
				if _, err := d.RequestAdmittance(&residents[j]); err != nil {
					return err
				}
			}
			return nil
		}})
	if err != nil {
		t.Fatal(err)
	}
	n := c.nodes[0]
	reset := func() {
		n.reset()
		n.seed, n.cfg, n.costs = 1, &c.cfg, sim.ZeroSwitchCosts()
		n.tel.Spans = n.flight.Ring()
		n.build(0)
		n.advance(50 * ms)
	}
	at := 50 * ms
	restart := func() {
		n.retire(false)
		n.d = nil
		at += 100 * ms
		n.build(at)
		n.advance(at + 50*ms)
	}
	cold := testing.AllocsPerRun(10, func() {
		n.shell = invariant.Shell{}
		reset()
	})
	for _, tc := range []struct {
		name string
		f    func()
	}{{"cluster reset", reset}, {"crash→restart", restart}} {
		if got := testing.AllocsPerRun(10, tc.f); got != 0 {
			t.Errorf("a warm node's %s and first periods allocate %v times, want 0 (a cold build %v)", tc.name, got, cold)
		}
	}
	if st, _ := n.d.Stats(1); st.Periods != 5 || n.initErr != "" || n.stallErr != "" {
		t.Errorf("the last incarnation's first task rolled %d periods, want 5 (init %q, stall %q)", st.Periods, n.initErr, n.stallErr)
	}
	if cold == 0 {
		t.Error("a cold node build allocates nothing: the pin above shows nothing")
	}
}

// BenchmarkFleetEpoch measures one epoch of a resident cluster: every
// node advanced 10 ms on the pool, then the coordinator's barrier. The
// skewed cluster holds its residents on the first half of its nodes
// only, as first-fit loads a fleet: at two workers one range holds the
// work and the other worker steals it.
func BenchmarkFleetEpoch(b *testing.B) {
	for _, workers := range []int{1, 2} {
		for _, tc := range []struct {
			n      int
			skewed bool
		}{{16, false}, {120, false}, {120, true}} {
			name := fmt.Sprintf("nodes=%d", tc.n)
			if tc.skewed {
				name += "/skewed"
			}
			if workers > 1 {
				name += fmt.Sprintf("/workers=%d", workers)
			}
			b.Run(name, func(b *testing.B) {
				cfg := residentConfig(tc.n, FirstFit)
				cfg.Workers = workers
				if init := cfg.NodeInit; tc.skewed {
					cfg.NodeInit = func(d *core.Distributor, node int) error {
						if node >= tc.n/2 {
							return nil
						}
						return init(d, node)
					}
				}
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
