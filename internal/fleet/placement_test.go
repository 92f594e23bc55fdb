package fleet

import (
	"math/rand"
	"slices"
	"testing"

	"repro/internal/task"
	"repro/internal/ticks"
)

const ms = ticks.PerMillisecond

// stableOrder is placementOrder(LeastLoaded) as it was before the
// order was kept between calls: identity, stably sorted by a snapshot
// of the loads. It is the oracle the repaired order must equal.
func stableOrder(c *Cluster) []int {
	order := make([]int, len(c.nodes))
	loads := make([]ticks.Frac, len(c.nodes))
	for i, nd := range c.nodes {
		order[i], loads[i] = i, nd.load()
	}
	slices.SortStableFunc(order, func(i, j int) int { return loads[i].Cmp(loads[j]) })
	return order
}

func TestPlacementOrderMatchesStableSort(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	c, err := New(Config{Nodes: 24, Seed: 3, Workers: 1, Placement: LeastLoaded})
	if err != nil {
		t.Fatal(err)
	}
	held := make([][]task.ID, len(c.nodes))
	// One node's load moves per step: a task of 3, 5 or 10 % (few
	// sizes, so equal loads are common) arrives or leaves, or the node
	// goes down (load FracOne, sorts last) or comes back.
	mutate := func() {
		i := rng.Intn(len(c.nodes))
		n := c.nodes[i]
		switch op := rng.Intn(8); {
		case op == 0:
			n.down = !n.down
		case op <= 2 && len(held[i]) > 0:
			k := rng.Intn(len(held[i]))
			if err := n.d.Manager().Remove(held[i][k]); err != nil {
				t.Fatal(err)
			}
			held[i] = slices.Delete(held[i], k, k+1)
		default:
			pct := []int{3, 5, 10}[rng.Intn(3)]
			id, err := n.d.RequestAdmittance(&task.Task{
				Name: "t", List: task.UniformLevels(10*ms, "T", pct), Body: task.Busy(),
			})
			if err == nil {
				held[i] = append(held[i], id)
			}
		}
	}
	for step := 0; step < 4000; step++ {
		mutate()
		switch {
		case step%97 == 0:
			// A storm front moves many nodes between two scans.
			for k := 0; k < 10; k++ {
				mutate()
			}
		case step%211 == 0:
			// The result may not depend on the order the repair starts
			// from.
			rng.Shuffle(len(c.scan.order), func(i, j int) { c.scan.order[i], c.scan.order[j] = c.scan.order[j], c.scan.order[i] })
		}
		want := stableOrder(c)
		if got := c.placementOrder(nil); !slices.Equal(got, want) {
			t.Fatalf("step %d: adaptive order\n %v\nstable sort from identity\n %v", step, got, want)
		}
	}
	ties, down := 0, 0
	for i, nd := range c.nodes {
		if nd.down {
			down++
		}
		if i > 0 && nd.load().Cmp(c.nodes[i-1].load()) == 0 {
			ties++
		}
	}
	t.Logf("final state: %d down nodes, %d adjacent equal loads", down, ties)
}

func TestPlacementOrderAllocFree(t *testing.T) {
	c, spare := loadedCluster(t, 120), loadedCluster(t, 8)
	i := 0
	if n := testing.AllocsPerRun(500, func() { stepPlacement(c, spare, i); i++ }); n != 0 {
		t.Errorf("placementOrder allocates %v objects per scan, want 0", n)
	}
}
