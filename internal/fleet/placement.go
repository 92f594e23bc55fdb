package fleet

import (
	"fmt"

	"repro/internal/task"
	"repro/internal/ticks"
)

// placeScratch belongs to placementOrder: the coordinator runs one
// placement scan at a time. order persists between scans — the
// least-loaded permutation is repaired, not rebuilt.
type placeScratch struct {
	order []int
	loads []ticks.Frac
}

func (s *placeScratch) reset() { s.order = s.order[:0] }

// placementOrder lists node IDs in the policy's offer order. The
// slice is the cluster's own, valid until the next call.
func (c *Cluster) placementOrder(a *admRec) []int {
	n := len(c.nodes)
	if len(c.scan.order) != n {
		// Identity, once: first-fit's order as it stands, least-loaded's
		// starting point.
		c.scan.order = c.scan.order[:0]
		for i := 0; i < n; i++ {
			c.scan.order = append(c.scan.order, i)
		}
	}
	order := c.scan.order
	switch c.cfg.Placement {
	case LeastLoaded:
		// Each node's load is read once into a snapshot, and the order
		// the last scan left is repaired by insertion on (load, ID).
		// That is a strict total order, so the sorted permutation is
		// unique — the one a stable sort by load from identity yields —
		// whatever order the repair starts from; and since one placement
		// moves one node's load, the repair is close to one comparison
		// per node.
		loads := c.scan.loads[:0]
		for _, nd := range c.nodes {
			loads = append(loads, nd.load())
		}
		c.scan.loads = loads
		for i := 1; i < n; i++ {
			x, j := order[i], i
			for ; j > 0; j-- {
				y := order[j-1]
				if ord := loads[x].Cmp(loads[y]); ord > 0 || ord == 0 && x > y {
					break
				}
				order[j] = y
			}
			order[j] = x
		}
	case RoundRobinHash:
		start := int(fnv64(a.Name) % uint64(n))
		for i := range order {
			order[i] = (start + i) % n
		}
	}
	return order
}

// fnv64 is FNV-1a, inlined so the hash that seeds round-robin
// placement is frozen by this repo, not by a library.
func fnv64(s string) uint64 {
	h := uint64(14695981039346656037)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= 1099511628211
	}
	return h
}

// offerScan is one placement scan: it presents a to the live nodes in
// the policy's order and returns the first that admits it, with the
// task ID that node's RM issued and the number of nodes that denied
// the offer first — nil when every node denied. One descriptor serves
// the whole scan: the RM copies the list only when it admits, and Body
// builds a fresh body per scan because bodies carry progress state — a
// denied offer never dispatches it, a re-placed task restarts. A
// migration's scan leaves out skip, the node the task is moving off
// (-1: none), and with calmOnly every node that is itself shedding.
func (c *Cluster) offerScan(a *admRec, skip int, calmOnly bool) (*node, task.ID, int) {
	denials := 0
	offer := &task.Task{Name: a.Name, List: a.List, Body: a.Body()}
	for _, ni := range c.placementOrder(a) {
		n := c.nodes[ni]
		if ni == skip || n.down || n.stallErr != "" {
			continue
		}
		if calmOnly && n.d.Manager().Pressure().Cmp(ticks.FracZero) > 0 {
			continue
		}
		id, err := n.d.RequestAdmittance(offer)
		if err == nil {
			return n, id, denials
		}
		denials++
		c.deniedAttempts++
	}
	return nil, task.NoID, denials
}

// place runs one full placement scan for a and either commits a
// guarantee, schedules a backoff retry, or records the admission's
// terminal outcome.
func (c *Cluster) place(a *admRec, now ticks.Ticks) {
	if n, id, denials := c.offerScan(a, -1, false); n != nil {
		c.placed(a, n, id, denials, now)
		return
	}
	a.attempts++
	if a.attempts >= c.cfg.Retry.MaxAttempts {
		c.abandon(a, now, fmt.Sprintf("denied fleet-wide %d times", a.attempts))
		return
	}
	delay := c.backoffDelay(a.attempts)
	c.cRetry.Inc()
	c.fleetSpan(now, "backoff", a, fmt.Sprintf("%s attempt %d", a.Name, a.attempts))
	c.flog.Record(now, "fleet.backoff",
		fmt.Sprintf("%s attempt %d denied fleet-wide; retry in %v", a.Name, a.attempts, delay))
	c.push(now+delay, actRetry, a, -1)
}

// backoffDelay is the wait before attempt+1: min(Base<<(attempt-1),
// Max) plus jitter in [0, delay/2] from the StreamBackoff substream.
func (c *Cluster) backoffDelay(attempt int) ticks.Ticks {
	d := c.cfg.Retry.Max
	if shift := uint(attempt - 1); shift < 32 {
		if b := c.cfg.Retry.Base << shift; b < d {
			d = b
		}
	}
	return d + ticks.Ticks(c.backoff.Uint64()%uint64(d/2+1))
}

// migrationScan moves load off governors under pressure: a node
// whose RM records nonzero shed pressure offers its most recent
// fleet placement to a pressure-free sibling (policy order). The
// target pays the migration cost as one interrupt slab — state
// transfer is not free — and the move is recorded either way. At
// most one migration per source node per barrier.
func (c *Cluster) migrationScan(now ticks.Ticks) {
	for _, n := range c.nodes {
		if n.down || n.d == nil || len(n.placed) == 0 || n.stallErr != "" {
			continue
		}
		if n.d.Manager().Pressure().Cmp(ticks.FracZero) <= 0 {
			continue
		}
		c.migrate(n.placed[len(n.placed)-1], n, now)
	}
}

func (c *Cluster) migrate(a *admRec, src *node, now ticks.Ticks) {
	dst, id, _ := c.offerScan(a, src.id, true)
	if dst == nil {
		c.migrateFailed++
		c.flog.Record(now, "fleet.migrate-failed",
			fmt.Sprintf("%s: node %d under pressure but no sibling can host", a.Name, src.id))
		return
	}
	if err := src.d.Terminate(a.id); err != nil {
		_ = dst.d.Terminate(id)
		c.flog.Record(now, "fleet.migrate-failed",
			fmt.Sprintf("%s: source node %d would not release: %v", a.Name, src.id, err))
		return
	}
	dst.d.Kernel().RunInterrupt(c.cfg.MigrationCost)
	c.moved(a, src, dst, id, now)
}
