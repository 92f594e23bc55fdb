package fleet

import (
	"sync"
	"sync/atomic"

	"repro/internal/fault"
	"repro/internal/metrics"
	"repro/internal/sim"
	"repro/internal/telemetry"
	"repro/internal/ticks"
)

// Cluster is the assembled fleet. Build with New (or NewIn, in an
// Arena the caller reuses), feed with Submit (and optionally
// fault.ArmFleet), then Run once.
//
// This file is the coordinator: the epoch loop and the action queue it
// drains at each barrier. What an action does is in placement.go,
// ledger.go and record.go, each with its own part of the arena below.
type Cluster struct {
	cfg     Config
	nodes   []*node
	now     ticks.Ticks
	horizon ticks.Ticks
	ran     bool

	queue  *actionQueue
	seqCtr int64

	// placement.go: the offer-order scratch and the backoff jitter.
	scan    *placeScratch
	backoff *sim.RNG

	// ledger.go: the admission records and the tallies of what became
	// of them — four no fleet.* counter carries, every other one in its
	// registered counter and nowhere else; the report and the
	// conservation audit read them.
	adms                                               []*admRec
	arrivals, unarrived, deniedAttempts, migrateFailed int64
	recoveryMS                                         metrics.Summary
	cPlaced, cSpill, cRetry, cReject, cMigrate         *telemetry.Counter
	cCrash, cRestart, cLost, cRecovered, cDrop         *telemetry.Counter

	// record.go: the coordinator's instrument set and black box (the
	// arena's recorder), its event log, and every black-box dump the
	// run produced, in trigger order (barrier order, node order within
	// a barrier).
	tel         *telemetry.Set
	flight      *telemetry.Flight
	flog        telemetry.EventLog
	flightDumps []telemetry.FlightDump
	cFlightDump *telemetry.Counter
}

type actionKind uint8

const (
	actArrive actionKind = iota
	actRetry
	actCrash
	actRestart
)

type action struct {
	due  ticks.Ticks
	seq  int64
	kind actionKind
	adm  *admRec
	node int
}

// actionQueue is a binary min-heap on (due, seq): due time orders
// actions across barriers, submission sequence breaks ties inside
// one, so the coordinator's processing order is a pure function of
// the spec.
type actionQueue struct{ a []action }

func (q *actionQueue) reset() { q.a = q.a[:0] }

func (q *actionQueue) less(i, j int) bool {
	if q.a[i].due != q.a[j].due {
		return q.a[i].due < q.a[j].due
	}
	return q.a[i].seq < q.a[j].seq
}

func (q *actionQueue) push(x action) {
	q.a = append(q.a, x)
	i := len(q.a) - 1
	for i > 0 {
		p := (i - 1) / 2
		if !q.less(i, p) {
			break
		}
		q.a[i], q.a[p] = q.a[p], q.a[i]
		i = p
	}
}

func (q *actionQueue) pop() action {
	top := q.a[0]
	last := len(q.a) - 1
	q.a[0] = q.a[last]
	q.a = q.a[:last]
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		s := i
		if l < len(q.a) && q.less(l, s) {
			s = l
		}
		if r < len(q.a) && q.less(r, s) {
			s = r
		}
		if s == i {
			break
		}
		q.a[i], q.a[s] = q.a[s], q.a[i]
		i = s
	}
	return top
}

func (q *actionQueue) len() int { return len(q.a) }

func (q *actionQueue) topDue() ticks.Ticks { return q.a[0].due }

func (c *Cluster) push(due ticks.Ticks, kind actionKind, adm *admRec, node int) {
	c.seqCtr++
	c.queue.push(action{due: due, seq: c.seqCtr, kind: kind, adm: adm, node: node})
}

// NodeCount implements fault.NodeFleet.
func (c *Cluster) NodeCount() int { return len(c.nodes) }

// ScheduleNodeCrash implements fault.NodeFleet: the crash lands at
// the epoch barrier covering at.
func (c *Cluster) ScheduleNodeCrash(node int, at ticks.Ticks) {
	c.push(at, actCrash, nil, node)
}

// ScheduleNodeRestart implements fault.NodeFleet.
func (c *Cluster) ScheduleNodeRestart(node int, at ticks.Ticks) {
	c.push(at, actRestart, nil, node)
}

// ArmOnNode implements fault.NodeFleet: the injector is armed on the
// node's current incarnation and logs into the node's own event log,
// so fire-time records stay node-local during parallel advances. If
// the node crashes first, the armed events die with the kernel —
// outages do not deliver interrupts.
func (c *Cluster) ArmOnNode(node int, inj fault.Injector, rng *sim.RNG) {
	n := c.nodes[node]
	if n.d == nil {
		return
	}
	inj.Arm(n.d, rng, &n.flog)
}

// Run advances the fleet to the horizon and freezes the report. One
// shot: a Cluster runs once.
func (c *Cluster) Run(horizon ticks.Ticks) *Report {
	if c.ran {
		panic("fleet: Run called twice")
	}
	if horizon <= 0 {
		panic("fleet: Run horizon must be positive")
	}
	c.ran = true
	c.horizon = horizon
	c.barrier(0)
	for c.now < horizon {
		next := c.now + epoch
		if next > horizon {
			next = horizon
		}
		c.advanceAll(next)
		c.now = next
		c.barrier(next)
	}
	c.finish(horizon)
	return c.report(horizon)
}

// advanceAll runs every live node to limit on the worker pool (a down
// or stalled node's advance returns at once). The pool only partitions
// node indexes; each node's trajectory is fixed by its own kernel, so
// the partition cannot affect results.
func (c *Cluster) advanceAll(limit ticks.Ticks) {
	if c.cfg.Workers <= 1 {
		for _, n := range c.nodes {
			n.advance(limit)
		}
		return
	}
	// Each worker claims the next unclaimed node index until none are
	// left.
	var next atomic.Int64
	var wg sync.WaitGroup
	wg.Add(c.cfg.Workers)
	for w := 0; w < c.cfg.Workers; w++ {
		go func() {
			defer wg.Done()
			for i := next.Add(1) - 1; i < int64(len(c.nodes)); i = next.Add(1) - 1 {
				c.nodes[i].advance(limit)
			}
		}()
	}
	wg.Wait()
}

// barrier is the sequential coordinator phase at cluster time now.
func (c *Cluster) barrier(now ticks.Ticks) {
	for c.queue.len() > 0 && c.queue.topDue() <= now {
		a := c.queue.pop()
		switch a.kind {
		case actArrive:
			c.arrivals++
			c.place(a.adm, now)
		case actRetry:
			c.place(a.adm, now)
		case actCrash:
			c.doCrash(a.node, now)
		case actRestart:
			c.doRestart(a.node, now)
		}
	}
	c.completionScan(now)
	c.migrationScan(now)
	c.flightScan(now)
}

// finish drains the pipeline at the horizon: in-flight retries
// become recorded outcomes, arrivals beyond the horizon are counted
// as never-arrived, live incarnations retire with finalized
// checkers. A finalized checker can surface stuck-period breaches that
// no barrier saw; those get a horizon-time dump.
func (c *Cluster) finish(horizon ticks.Ticks) {
	for c.queue.len() > 0 {
		a := c.queue.pop()
		switch a.kind {
		case actArrive:
			c.unarrived++
		case actRetry:
			c.abandon(a.adm, horizon, "horizon reached mid-retry")
		}
	}
	for _, n := range c.nodes {
		if !n.down {
			n.retire(true)
			c.dumpBreach(n, horizon)
		}
	}
}
