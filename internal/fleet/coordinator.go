//rd:hotpath
package fleet

import (
	"runtime"
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
	pool   pool

	// placement.go: the offer-order scratch and the backoff jitter.
	scan    *placeScratch
	backoff *sim.RNG

	// ledger.go: the admission records and the tallies of what became
	// of them — four no fleet.* counter carries, every other one in its
	// registered counter and nowhere else; the report and the
	// conservation audit read them.
	recs                                               *records
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
	adm  *admRec // a retry's record
	node int     // a crash's or restart's node; an arrival's record index
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
	c.pool.start(c.nodes, c.cfg.Workers)
	defer c.pool.stop()
	c.barrier(0)
	for c.now < horizon {
		next := c.now + epoch
		if next > horizon {
			next = horizon
		}
		c.pool.advance(next)
		c.now = next
		c.barrier(next)
	}
	c.finish(horizon)
	return c.report(horizon)
}

// pool advances the nodes between barriers. Run starts Workers−1
// helpers once, and stop joins them on every exit from Run, a panic
// included, so none touches a node NewIn recycles. Worker k (the
// coordinator is 0) claims range k of the nodes front to back, then the
// other ranges' unclaimed nodes from the back, so an owner keeps its
// cache-warm front and a thief takes the cold tail. An epoch is its
// limit sent on each helper's wake channel (-1 stops the helper);
// pending counts the helpers still advancing.
type pool struct {
	nodes     []*node
	ranges    []nodeRange
	pending   atomic.Int64
	joined    sync.WaitGroup
	mu        sync.Mutex
	panicNode int
	panicked  any
}

// spinChecks bounds a helper's spin before it parks: spinning keeps
// its core through a barrier, parking lends the core to the runtime
// (the GC included) through a long one.
const spinChecks = 1 << 16

// poll is check i of a spin-wait. Every 16th yields the P: yielding on
// every check slows the goroutine on the other core through the
// scheduler traffic, and never yielding keeps the GC's workers off the
// P until the runtime preempts the spin.
func poll(i int) {
	if i%16 == 15 {
		runtime.Gosched()
	}
}

// nodeRange is one worker's range, its unclaimed nodes [lo, hi) packed
// lo<<32 | hi into the one word every claim swaps. The padding keeps
// two ranges' words off one cache line.
type nodeRange struct {
	unclaimed atomic.Uint64
	wake      chan ticks.Ticks
	_         [64]byte
}

func (p *pool) start(nodes []*node, workers int) {
	p.nodes, p.ranges = nodes, make([]nodeRange, workers)
	for k := 1; k < workers; k++ {
		p.ranges[k].wake = make(chan ticks.Ticks, 1)
		p.joined.Add(1)
		go p.help(k)
	}
}

// advance runs every live node to limit (a down or stalled node's
// advance returns at once), then re-raises the lowest-indexed node's
// panic: every node is claimed whatever panics, so that is the node a
// one-worker run panics on. Nothing allocates.
func (p *pool) advance(limit ticks.Ticks) {
	n, w := len(p.nodes), len(p.ranges)
	for k := range p.ranges {
		p.ranges[k].unclaimed.Store(uint64(k*n/w)<<32 | uint64((k+1)*n/w))
	}
	p.pending.Store(int64(w - 1))
	p.release(limit)
	p.run(0, limit)
	for i := 0; p.pending.Load() != 0; i++ {
		poll(i)
	}
	if p.panicked != nil {
		panic(p.panicked)
	}
}

func (p *pool) stop() {
	p.release(-1)
	p.joined.Wait()
}

func (p *pool) release(limit ticks.Ticks) {
	for k := 1; k < len(p.ranges); k++ {
		p.ranges[k].wake <- limit
	}
}

// run is worker k's part of an epoch: its own range from the front,
// then each other range, the next one first, from the back.
func (p *pool) run(k int, limit ticks.Ticks) {
	for j := range p.ranges {
		r := &p.ranges[(k+j)%len(p.ranges)]
		for i := r.claim(j > 0); i >= 0; i = r.claim(j > 0) {
			p.step(i, limit)
		}
	}
}

// claim takes r's front unclaimed node, or its back one, and returns
// its index; -1 when none is left.
func (r *nodeRange) claim(back bool) int {
	for w := r.unclaimed.Load(); w>>32 < uint64(uint32(w)); w = r.unclaimed.Load() {
		i, next := int(w>>32), w+1<<32
		if back {
			i, next = int(uint32(w))-1, w-1
		}
		if r.unclaimed.CompareAndSwap(w, next) {
			return i
		}
	}
	return -1
}

// step advances node i to limit. Its panic is recovered into
// panicked if no lower-indexed node's is there.
func (p *pool) step(i int, limit ticks.Ticks) {
	defer func() {
		if v := recover(); v != nil {
			p.mu.Lock()
			if p.panicked == nil || i < p.panicNode {
				p.panicNode, p.panicked = i, v
			}
			p.mu.Unlock()
		}
	}()
	p.nodes[i].advance(limit)
}

// help is a helper's loop: spin, then park, until the next limit.
func (p *pool) help(k int) {
	defer p.joined.Done()
	r := &p.ranges[k]
	for {
		for i := 0; len(r.wake) == 0 && i < spinChecks; i++ {
			poll(i)
		}
		limit := <-r.wake
		if limit < 0 {
			return
		}
		p.run(k, limit)
		p.pending.Add(-1)
	}
}

// barrier is the sequential coordinator phase at cluster time now.
func (c *Cluster) barrier(now ticks.Ticks) {
	for c.queue.len() > 0 && c.queue.topDue() <= now {
		a := c.queue.pop()
		switch a.kind {
		case actArrive:
			c.arrivals++
			c.place(&c.recs.a[a.node], now)
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
