// Package fleet is the multi-node layer over the Resource
// Distributor: a deterministic cluster where every node is one
// complete RD (kernel + scheduler + RM + governor) and a cluster
// admission front end places guaranteed tasks across nodes,
// spilling admissions a node rejects onto siblings, retrying
// fleet-wide denials under bounded exponential backoff, migrating
// load off nodes whose governors are shedding, and re-admitting the
// guarantees lost when a whole node crashes.
//
// # Determinism
//
// The cluster advances on epoch barriers. Between barriers every
// live node runs its own single-goroutine kernel in parallel on a
// bounded worker pool (the rdsweep sharding pattern — nodes share no
// state, so the node→worker assignment cannot affect any node's
// trajectory). At each barrier a single coordinator applies every
// inter-node action — arrivals, retries, crashes, restarts,
// migrations — sequentially, ordered by (due time, submission
// sequence). Inter-node effects are therefore quantized to epoch
// boundaries: conservative, and exactly reproducible for any worker
// count. `fleet.Config.Workers` never affects results, only wall
// time; fleet_test.go pins this the way sweep_test.go pins rdsweep.
//
// Randomness follows the repo's substream discipline
// (docs/DETERMINISM.md): backoff jitter draws from the dedicated
// StreamBackoff substream of the cluster seed, node kernel seeds
// derive from StreamNodeSeeds (a per-node splitmix chain, advanced
// again at every restart so each incarnation decorrelates), and
// node-level fault injectors get the positional fault.StreamBase+i
// substreams, exactly like per-task injectors.
//
// # Conservation
//
// The robustness contract mirrors the paper's §5.2 overload story at
// fleet scope: a guarantee, once accepted, is never silently
// dropped. Every admission ends placed (and running or naturally
// completed), rejected with a recorded fleet-wide denial, or — after
// a node crash — either re-placed on a sibling or recorded as a
// degradation. Finish() re-derives the ledger from the admission
// records and reports any imbalance as an invariant violation,
// alongside the per-node runtime checkers.
package fleet

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"

	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/invariant"
	"repro/internal/metrics"
	"repro/internal/sim"
	"repro/internal/task"
	"repro/internal/telemetry"
	"repro/internal/ticks"
)

// Seed substreams owned by the fleet layer (see the allocation table
// in docs/DETERMINISM.md; rngstream polices these fleet-wide).
const (
	// StreamBackoff feeds the retry backoff jitter: every delay the
	// cluster draws between placement attempts comes from this one
	// substream, consumed only in the sequential coordinator phase.
	StreamBackoff = 7
	// StreamNodeSeeds derives node kernel seeds: node i's first
	// incarnation seed is the i-th draw from the substream, and each
	// restart advances the node's private splitmix chain one step so
	// a rebuilt kernel never replays its predecessor.
	StreamNodeSeeds = 8
)

// Placement selects the order in which the admission front end
// offers a task to nodes.
type Placement int

const (
	// FirstFit scans nodes in ID order and takes the first admit.
	FirstFit Placement = iota
	// LeastLoaded offers to nodes in ascending committed-minimum
	// order (rm.Manager.MinSum), IDs breaking ties.
	LeastLoaded
	// RoundRobinHash starts the scan at hash(task name) mod N and
	// wraps, spreading unrelated tasks without central state.
	RoundRobinHash
)

func (p Placement) String() string {
	switch p {
	case LeastLoaded:
		return "least-loaded"
	case RoundRobinHash:
		return "rr-hash"
	default:
		return "first-fit"
	}
}

// RetryPolicy bounds the fleet-wide admission retry loop.
type RetryPolicy struct {
	// MaxAttempts is the total number of full placement scans an
	// admission may consume before the cluster gives up on it.
	MaxAttempts int
	// Base is the backoff before the second attempt; attempt k waits
	// min(Base<<(k-1), Max) plus jitter in [0, delay/2] drawn from
	// StreamBackoff.
	Base ticks.Ticks
	// Max caps the exponential growth.
	Max ticks.Ticks
}

// Config assembles a cluster.
type Config struct {
	// Nodes is the fleet size; every node is a full RD.
	Nodes int
	// Seed is the cluster seed; node seeds and backoff jitter derive
	// from it via the substreams above.
	Seed uint64
	// Epoch is the barrier interval (default 10 ms). All inter-node
	// actions take effect on epoch boundaries.
	Epoch ticks.Ticks
	// Placement selects the admission scan order.
	Placement Placement
	// Retry bounds the fleet-wide retry loop (defaults: 4 attempts,
	// 5 ms base, 80 ms cap).
	Retry RetryPolicy
	// MigrationCost is the state-transfer charge a migration's target
	// node pays, delivered as one interrupt slab (default 100 µs).
	MigrationCost ticks.Ticks
	// Workers bounds the node-advance pool; <= 0 selects
	// min(GOMAXPROCS, Nodes). Never affects results.
	Workers int
	// SwitchCosts applies to every node kernel (nil = zero costs).
	SwitchCosts *sim.SwitchCosts
	// InterruptReservePercent is each node's §5.2 interrupt reserve.
	InterruptReservePercent int64
	// GovernorInterval, when positive, arms each node's overload
	// governor; a node under recorded pressure becomes a migration
	// source at the next barrier.
	GovernorInterval ticks.Ticks
	// Invariants arms a per-node invariant.Checker on every node
	// incarnation.
	Invariants bool
	// NodeInit, when non-nil, installs each node's resident local
	// workload; it runs once per incarnation (initial build and after
	// every restart). Resident load is node-local by definition — it
	// dies with a crash and returns with the restart, and is not part
	// of the cluster guarantee ledger.
	NodeInit func(d *core.Distributor, node int) error

	// SpanLog retains every node's full decision-span log, which a
	// stitched cluster manifest needs to show a guarantee's complete
	// lifecycle. Off by default: each node then keeps only its flight
	// recorder's ring, so telemetry memory stays bounded at fleet
	// scale while the black box and causal links still work.
	SpanLog bool
	// FlightSpans sizes each node's (and the coordinator's) black-box
	// span ring; zero selects the telemetry package default. Ring
	// capacity never affects a run's trajectory, only how much history
	// a dump can carry.
	FlightSpans int
}

// Admission is one guaranteed-task arrival presented to the cluster
// front end.
type Admission struct {
	// At is the arrival's virtual time; it is handled at the first
	// epoch barrier at or after At.
	At ticks.Ticks
	// Name is the task name offered to node RMs (policy boxes rank
	// by name, so recurring names inherit node-local policies).
	Name string
	// List is the resource list; the node RM that accepts the task
	// keeps its own copy.
	List task.ResourceList
	// Body builds a fresh task body per placement scan — bodies carry
	// progress state, and a re-placed task restarts. A scan offers the
	// one body to node after node: a denied offer never dispatches it.
	Body func() task.Body
}

type admState uint8

const (
	admPending  admState = iota // in the placement pipeline
	admPlaced                   // holding a guarantee on a node
	admDone                     // ran to natural completion
	admRejected                 // recorded fleet-wide denial; never held a guarantee
	admLost                     // guarantee lost to a crash, recorded as a degradation
)

// admRec is the cluster ledger entry for one admission.
type admRec struct {
	Admission
	seq            int
	state          admState
	node           int
	id             task.ID
	attempts       int
	recovering     bool
	crashAt        ticks.Ticks
	timesLost      int
	timesRecovered int

	// Causal-chain tip: the last span recorded for this guarantee's
	// lifecycle, as a (node tag, span ID) address. Every subsequent
	// fleet action links its span back here, so the stitched cluster
	// manifest reads a placement → migration → crash → re-admission
	// history as one linked chain across nodes.
	linkNode int32
	linkSpan telemetry.SpanID
}

// --- the coordinator action queue ---

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

// --- nodes ---

// node is one RD in the fleet. Everything inside it is touched
// either by its own advance (parallel phase, node-local) or by the
// coordinator (sequential phase), never both at once.
type node struct {
	id    int
	seed  uint64
	cfg   *Config
	costs sim.SwitchCosts

	d   *core.Distributor
	chk *invariant.Checker
	// flog is the node's own event log: injectors armed on this node
	// record here from the parallel phase, so fire-time writes stay
	// node-local. Merged into the cluster report in node-ID order,
	// and mirrored into the node's flight recorder.
	flog telemetry.EventLog

	// tel is the node's telemetry set. It outlives incarnations: a
	// restarted kernel re-registers the same instrument names
	// (get-or-create) and keeps appending to the same span log, so a
	// node's history, the miss and period counts the report reads
	// included, runs continuously across crashes. The span log is
	// either unbounded (Config.SpanLog) or the flight ring itself. The
	// set is the shell's: its registry starts the next cluster reset.
	tel *telemetry.Set
	// flight is the node's always-on black box: the last-N spans and
	// event lines, dumped when the node crashes, stalls, or trips its
	// invariant checker.
	flight *telemetry.Flight

	down     bool
	restarts int
	placed   []*admRec
	// scannedGen is the incarnation's Manager.GrantGeneration at the
	// last completion scan: nothing leaves the RM without a recompute.
	scannedGen uint64
	stallErr   string
	// violDumped / stallDumped dedupe flight dumps: each new breach
	// dumps once, at the barrier that notices it.
	violDumped  int64
	stallDumped bool

	// Accumulators over finished incarnations; statsBase subtracts
	// the idle skip a restarted kernel performs to rejoin cluster
	// time, so utilization reflects only live capacity.
	statsBase       sim.Stats
	accStats        sim.Stats
	accElapsed      ticks.Ticks
	accViolations   int64
	accDegradations int64
	initErr         string
}

// build assembles a fresh incarnation at cluster time at.
func (n *node) build(at ticks.Ticks) {
	cfg := core.Config{
		Seed:                    n.seed,
		SwitchCosts:             &n.costs,
		InterruptReservePercent: n.cfg.InterruptReservePercent,
		Telemetry:               n.tel,
	}
	n.chk = nil
	n.scannedGen = 0
	if n.cfg.Invariants {
		n.chk = invariant.New(nil)
		cfg.Observer = n.chk
	}
	n.d = core.New(cfg)
	if n.chk != nil {
		n.chk.Bind(n.d.Kernel(), n.d.Manager(), n.d.Scheduler())
		n.chk.LogTo(&n.flog)
		n.chk.EnableTelemetry(n.tel)
	}
	if at > 0 {
		// A restarted kernel idles forward to rejoin cluster time; the
		// stats base excludes that skip from the node's accounting.
		n.d.RunUntil(at)
	}
	n.statsBase = n.d.Kernel().Stats()
	if n.cfg.GovernorInterval > 0 {
		n.d.EnableOverloadGovernor(n.cfg.GovernorInterval)
	}
	if n.cfg.NodeInit != nil {
		if err := n.cfg.NodeInit(n.d, n.id); err != nil {
			n.initErr = fmt.Sprintf("node %d init: %v", n.id, err)
		}
	}
}

// advance runs the node's kernel to limit. Parallel phase: called
// from pool workers, touches only this node.
func (n *node) advance(limit ticks.Ticks) {
	if n.down || n.stallErr != "" {
		return
	}
	n.d.RunUntil(limit)
	if info, ok := n.d.Kernel().Stalled(); ok {
		n.stallErr = fmt.Sprintf("node %d: kernel livelock guard tripped at t=%d after %d same-tick events",
			n.id, int64(info.At), info.Events)
	}
}

// retire folds the current incarnation's stats into the node
// accumulators. finish additionally finalizes the invariant checker
// (a crashed incarnation is not finalized: its open periods died
// with the node, and the fleet ledger, not the node checker, owns
// the lost guarantees).
func (n *node) retire(finish bool) {
	if n.d == nil {
		return
	}
	if n.chk != nil {
		if finish {
			n.chk.Finish()
		}
		n.accViolations += int64(len(n.chk.Violations()))
	}
	n.accDegradations += int64(len(n.d.Manager().DegradationEvents()))
	st := n.d.Kernel().Stats()
	n.accStats.BusyTicks += st.BusyTicks - n.statsBase.BusyTicks
	n.accStats.IdleTicks += st.IdleTicks - n.statsBase.IdleTicks
	n.accStats.SwitchTicks += st.SwitchTicks - n.statsBase.SwitchTicks
	n.accStats.InterruptTicks += st.InterruptTicks - n.statsBase.InterruptTicks
	n.accStats.VolSwitches += st.VolSwitches - n.statsBase.VolSwitches
	n.accStats.InvolSwitches += st.InvolSwitches - n.statsBase.InvolSwitches
	n.accStats.Interrupts += st.Interrupts - n.statsBase.Interrupts
	n.accElapsed += st.Now - n.statsBase.Now
}

// load is the placement pressure signal: the committed minimum sum.
// Down nodes sort last.
func (n *node) load() ticks.Frac {
	if n.down || n.d == nil {
		return ticks.FracOne
	}
	return n.d.Manager().MinSum()
}

// --- the cluster ---

// Cluster is the assembled fleet. Build with New (or NewIn, in an
// Arena the caller reuses), feed with Submit (and optionally
// fault.ArmFleet), then Run once.
type Cluster struct {
	cfg Config
	// mem is the arena the cluster was built in: it owns the node
	// shells behind nodes, the coordinator's span log and flight
	// recorder, the action queue and the placement scratch.
	mem     *Arena
	nodes   []*node
	adms    []*admRec
	seqCtr  int64
	backoff *sim.RNG
	now     ticks.Ticks
	horizon ticks.Ticks
	flog    telemetry.EventLog
	tel     *telemetry.Set
	ran     bool

	// flightDumps collects every black-box dump the run produced, in
	// trigger order (barrier order, node order within a barrier).
	flightDumps []telemetry.FlightDump

	// The four tallies no fleet.* counter carries.
	arrivals, unarrived, deniedAttempts, migrateFailed int64
	recoveryMS                                         metrics.Summary

	// Every other tally of the run lives in its registered counter and
	// nowhere else; the report and the conservation audit read them.
	cPlaced, cSpill, cRetry, cReject, cMigrate *telemetry.Counter
	cCrash, cRestart, cLost, cRecovered, cDrop *telemetry.Counter
	cFlightDump                                *telemetry.Counter
}

// Arena is the storage clusters are built in, one after another: the
// node shells — each node's flight recorder (span ring and event
// ring), event log and instrument registry — the coordinator's span
// log, flight recorder and registry, the action queue and the
// placement scratch. The rings alone are three quarters of what a
// 120-node cluster allocates to exist, so a caller that runs many
// clusters keeps one Arena and pays for them once. The zero value is
// ready to use.
//
// An Arena belongs to one goroutine and holds one live cluster:
// building the next cluster in it recycles the previous one's storage,
// so that cluster must not be used again — its Report stays valid, a
// Report holds copies. Inside a run the coordinator's registry is
// touched in the sequential phase only and a node's, like the rest of
// its shell, by the one pool worker advancing that node. Which arena a
// cluster is built in, and what ran there before, never affects its
// results (docs/DETERMINISM.md).
type Arena struct {
	// nodes holds every shell built here; a cluster takes the first
	// Config.Nodes of them.
	nodes []*node
	// spans is the coordinator's decision-span log: it records every
	// fleet decision (bounded by the admission pipeline, so always-full
	// retention is cheap). flight, its black box, fronts the spans and
	// mirrors the tail of the event log for conservation-breach dumps.
	spans  *telemetry.Spans
	flight *telemetry.Flight
	reg    telemetry.Registry
	// spanCap is the Config ring size the recorders above were built
	// with.
	spanCap int

	q actionQueue
	// order and loads belong to placementOrder: the coordinator runs
	// one placement scan at a time. order persists between scans — the
	// least-loaded permutation is repaired, not rebuilt.
	order []int
	loads []ticks.Frac
}

// reset readies the arena for a cluster with the given span-ring size:
// recorders of another size are let go, and nothing of the previous
// cluster is left in the shells or the scratch.
func (a *Arena) reset(spanCap int) {
	if a.spanCap != spanCap {
		a.nodes, a.flight = nil, nil
		a.spanCap = spanCap
	}
	if a.flight == nil {
		a.flight = telemetry.NewFlight(spanCap, 0)
		a.spans = telemetry.NewSpans()
	}
	a.flight.Reset()
	a.spans.Reset()
	a.reg.Reset()
	a.flight.Front(a.spans)
	for _, n := range a.nodes {
		n.flight.Reset()
		n.flog.Reset()
		n.tel.Registry.Reset()
		*n = node{flight: n.flight, flog: n.flog, tel: n.tel, placed: n.placed[:0]}
	}
	a.q.a = a.q.a[:0]
	a.order = a.order[:0]
}

// shell returns node i's storage, building it on first use.
func (a *Arena) shell(i int) *node {
	if i == len(a.nodes) {
		n := &node{
			flight: telemetry.NewFlight(a.spanCap, 0),
			tel:    &telemetry.Set{Registry: telemetry.NewRegistry()},
		}
		n.flog.MirrorTo(n.flight)
		a.nodes = append(a.nodes, n)
	}
	return a.nodes[i]
}

// New assembles a fleet in an arena of its own: the cluster may be
// kept for as long as the caller likes.
func New(cfg Config) (*Cluster, error) { return NewIn(new(Arena), cfg) }

// NewIn validates the config and assembles the fleet at virtual time
// zero, node by node in ID order, in a's storage. The cluster a held
// before is dead from here on.
func NewIn(a *Arena, cfg Config) (*Cluster, error) {
	if cfg.Nodes < 1 {
		return nil, fmt.Errorf("fleet: node count %d must be at least 1", cfg.Nodes)
	}
	if cfg.Epoch < 0 || cfg.MigrationCost < 0 || cfg.GovernorInterval < 0 {
		return nil, fmt.Errorf("fleet: epoch, migration cost and governor interval must not be negative")
	}
	if cfg.Epoch == 0 {
		cfg.Epoch = 10 * ticks.PerMillisecond
	}
	if cfg.MigrationCost == 0 {
		cfg.MigrationCost = 100 * ticks.PerMicrosecond
	}
	if cfg.Retry.MaxAttempts <= 0 {
		cfg.Retry.MaxAttempts = 4
	}
	if cfg.Retry.Base <= 0 {
		cfg.Retry.Base = 5 * ticks.PerMillisecond
	}
	if cfg.Retry.Max < cfg.Retry.Base {
		cfg.Retry.Max = 80 * ticks.PerMillisecond
	}
	if cfg.Workers <= 0 {
		cfg.Workers = runtime.GOMAXPROCS(0)
	}
	if cfg.Workers > cfg.Nodes {
		cfg.Workers = cfg.Nodes
	}

	a.reset(cfg.FlightSpans)
	c := &Cluster{
		cfg:     cfg,
		mem:     a,
		backoff: sim.NewRNG(sim.SplitSeed(cfg.Seed, StreamBackoff)),
		tel:     &telemetry.Set{Registry: &a.reg, Spans: a.spans},
	}
	c.flog.MirrorTo(a.flight)
	reg := c.tel.Reg()
	c.cPlaced = reg.Counter("fleet.placed")
	c.cSpill = reg.Counter("fleet.spillovers")
	c.cRetry = reg.Counter("fleet.retries")
	c.cReject = reg.Counter("fleet.rejected")
	c.cMigrate = reg.Counter("fleet.migrations")
	c.cCrash = reg.Counter("fleet.node_crashes")
	c.cRestart = reg.Counter("fleet.node_restarts")
	c.cLost = reg.Counter("fleet.lost_to_crash")
	c.cRecovered = reg.Counter("fleet.recovered")
	c.cDrop = reg.Counter("fleet.lost_recorded")
	c.cFlightDump = reg.Counter("fleet.flight.dumps")

	seeds := sim.NewRNG(sim.SplitSeed(cfg.Seed, StreamNodeSeeds))
	costs := sim.ZeroSwitchCosts()
	if cfg.SwitchCosts != nil {
		costs = *cfg.SwitchCosts
	}
	for i := 0; i < cfg.Nodes; i++ {
		n := a.shell(i)
		n.id, n.seed, n.cfg, n.costs = i, seeds.Uint64(), &c.cfg, costs
		n.tel.Spans = n.flight.Ring()
		if cfg.SpanLog {
			n.tel.Spans = telemetry.NewSpans()
			n.flight.Front(n.tel.Spans)
		}
		n.build(0)
	}
	c.nodes = a.nodes[:cfg.Nodes]
	return c, nil
}

// Telemetry exposes the cluster's instrument set (counters above,
// all incremented in the sequential coordinator phase).
func (c *Cluster) Telemetry() *telemetry.Set { return c.tel }

// Node returns node i's current Distributor, or nil while the node
// is down. Coordinator-phase access only; exposed for tests and
// resident-workload wiring.
func (c *Cluster) Node(i int) *core.Distributor { return c.nodes[i].d }

// Submit enqueues one admission. Submissions must precede Run; their
// order is part of the cluster's deterministic identity.
func (c *Cluster) Submit(a Admission) error {
	if c.ran {
		return fmt.Errorf("fleet: Submit after Run")
	}
	if a.At < 0 {
		return fmt.Errorf("fleet: admission %q arrival time must not be negative", a.Name)
	}
	if a.Name == "" {
		return fmt.Errorf("fleet: admission needs a name")
	}
	if a.Body == nil {
		return fmt.Errorf("fleet: admission %q needs a body factory", a.Name)
	}
	if err := a.List.Validate(); err != nil {
		return fmt.Errorf("fleet: admission %q: %w", a.Name, err)
	}
	rec := &admRec{Admission: a, seq: len(c.adms), node: -1, id: task.NoID}
	c.adms = append(c.adms, rec)
	c.push(a.At, actArrive, rec, -1)
	return nil
}

func (c *Cluster) push(due ticks.Ticks, kind actionKind, adm *admRec, node int) {
	c.seqCtr++
	c.mem.q.push(action{due: due, seq: c.seqCtr, kind: kind, adm: adm, node: node})
}

// --- fault.NodeFleet ---

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

// --- the run loop ---

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
		next := c.now + c.cfg.Epoch
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

// advanceAll runs every live node to limit on the worker pool. The
// pool only partitions node indexes; each node's trajectory is fixed
// by its own kernel, so the partition cannot affect results.
func (c *Cluster) advanceAll(limit ticks.Ticks) {
	live := 0
	for _, n := range c.nodes {
		if !n.down {
			live++
		}
	}
	workers := c.cfg.Workers
	if workers > live {
		workers = live
	}
	if workers <= 1 {
		for _, n := range c.nodes {
			if !n.down {
				n.advance(limit)
			}
		}
		return
	}
	// Each worker claims the next unclaimed node index until none are
	// left.
	var next atomic.Int64
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for i := next.Add(1) - 1; i < int64(len(c.nodes)); i = next.Add(1) - 1 {
				if n := c.nodes[i]; !n.down {
					n.advance(limit)
				}
			}
		}()
	}
	wg.Wait()
}

// barrier is the sequential coordinator phase at cluster time now.
func (c *Cluster) barrier(now ticks.Ticks) {
	for c.mem.q.len() > 0 && c.mem.q.topDue() <= now {
		a := c.mem.q.pop()
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

// fleetSpan records one coordinator decision instant (cat "fleet")
// and, when it belongs to an admission's lifecycle, links it to the
// chain tip and advances the tip to this span. Returns the span ID
// for callers that re-tip onto a node-side span.
func (c *Cluster) fleetSpan(now ticks.Ticks, name string, a *admRec, detail string) telemetry.SpanID {
	id := c.tel.SpanLog().Instant(now, "fleet", name, telemetry.NoTask, 0, detail)
	if a != nil && id != 0 {
		if a.linkSpan != 0 {
			c.tel.SpanLog().SetLink(id, a.linkNode, a.linkSpan)
		}
		a.linkNode, a.linkSpan = telemetry.CoordTag, id
	}
	return id
}

// tipToAdmission moves an admission's chain tip onto the node-side
// admission span the placement just produced, and links that span
// back to the coordinator decision — the cross-node half of the
// causal chain. The admission span is the newest "admission"-cat span
// in the node's log: RequestAdmittance records it synchronously and
// the coordinator owns the log until the next parallel phase.
func (c *Cluster) tipToAdmission(n *node, a *admRec, coordSpan telemetry.SpanID) {
	log := n.tel.SpanLog()
	admSpan := log.FindLast("admission")
	if admSpan == 0 {
		return
	}
	log.SetLink(admSpan, telemetry.CoordTag, coordSpan)
	a.linkNode, a.linkSpan = telemetry.NodeTag(n.id), admSpan
}

// dump snapshots a flight recorder into the run's post-mortem record.
func (c *Cluster) dump(f *telemetry.Flight, tag int32, reason string, at ticks.Ticks) {
	c.flightDumps = append(c.flightDumps, f.Dump(tag, reason, at))
	c.cFlightDump.Inc()
	c.flog.Record(at, "fleet.flight-dump",
		fmt.Sprintf("%s black box dumped (%s)", telemetry.TagString(tag), reason))
}

// flightScan fires black-box dumps for breaches the parallel phase
// surfaced: a node whose invariant checker recorded new violations,
// or a node whose kernel tripped the livelock guard. Crash dumps are
// taken in doCrash, where the dying incarnation is still at hand.
func (c *Cluster) flightScan(now ticks.Ticks) {
	for _, n := range c.nodes {
		if n.stallErr != "" && !n.stallDumped {
			n.stallDumped = true
			c.dump(n.flight, telemetry.NodeTag(n.id), "stall", now)
		}
		if n.down || n.chk == nil {
			continue
		}
		if v := n.accViolations + int64(n.chk.NViolations()); v > n.violDumped {
			n.violDumped = v
			c.dump(n.flight, telemetry.NodeTag(n.id), "invariant", now)
		}
	}
}

// place runs one full placement scan for a, in the policy's node
// order, and either commits a guarantee, schedules a backoff retry,
// or records the admission's terminal outcome.
func (c *Cluster) place(a *admRec, now ticks.Ticks) {
	denials := 0
	offer := a.offer()
	for _, ni := range c.placementOrder(a) {
		n := c.nodes[ni]
		if n.down || n.stallErr != "" {
			continue
		}
		id, err := n.d.RequestAdmittance(offer)
		if err != nil {
			denials++
			c.deniedAttempts++
			continue
		}
		a.state = admPlaced
		a.node, a.id = ni, id
		a.attempts = 0
		n.placed = append(n.placed, a)
		c.cPlaced.Inc()
		spanName := "place"
		if denials > 0 {
			c.cSpill.Inc()
			spanName = "spill"
			c.flog.Record(now, "fleet.spill",
				fmt.Sprintf("%s spilled to node %d after %d denial(s)", a.Name, ni, denials))
		}
		if a.recovering {
			a.recovering = false
			a.timesRecovered++
			c.cRecovered.Inc()
			spanName = "recover"
			c.recoveryMS.Add((now - a.crashAt).MillisecondsF())
			c.flog.Record(now, "fleet.recover",
				fmt.Sprintf("%s re-placed on node %d, %v after its node crashed", a.Name, ni, now-a.crashAt))
		}
		p := c.fleetSpan(now, spanName, a, fmt.Sprintf("%s -> node %d", a.Name, ni))
		c.tipToAdmission(n, a, p)
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

// offer builds the descriptor one placement scan presents to node
// after node. Denials leave it untouched — the RM copies the list only
// when it admits, and a body that was never dispatched has no progress
// to carry over — so one descriptor serves the whole scan.
func (a *admRec) offer() *task.Task {
	return &task.Task{Name: a.Name, List: a.List, Body: a.Body()}
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

// abandon records an admission's terminal failure: a degradation if
// a crash stranded it, a plain fleet-wide rejection otherwise.
// Either way the outcome is in the ledger and the event log — never
// a silent drop.
func (c *Cluster) abandon(a *admRec, now ticks.Ticks, why string) {
	if a.recovering {
		a.recovering = false
		a.state = admLost
		c.cDrop.Inc()
		c.fleetSpan(now, "lost", a, fmt.Sprintf("%s: %s", a.Name, why))
		c.flog.Record(now, "fleet.lost",
			fmt.Sprintf("%s: guarantee lost to node crash, not re-placed (%s); recorded as degradation", a.Name, why))
		return
	}
	a.state = admRejected
	c.cReject.Inc()
	c.fleetSpan(now, "reject", a, fmt.Sprintf("%s: %s", a.Name, why))
	c.flog.Record(now, "fleet.reject", fmt.Sprintf("%s rejected fleet-wide (%s)", a.Name, why))
}

// placementOrder lists node IDs in the policy's offer order. The
// slice is the cluster's own, valid until the next call.
func (c *Cluster) placementOrder(a *admRec) []int {
	n := len(c.nodes)
	if len(c.mem.order) != n {
		// Identity, once: first-fit's order as it stands, least-loaded's
		// starting point.
		c.mem.order = c.mem.order[:0]
		for i := 0; i < n; i++ {
			c.mem.order = append(c.mem.order, i)
		}
	}
	order := c.mem.order
	switch c.cfg.Placement {
	case LeastLoaded:
		// Each node's load is read once into a snapshot, and the order
		// the last scan left is repaired by insertion on (load, ID).
		// That is a strict total order, so the sorted permutation is
		// unique — the one a stable sort by load from identity yields —
		// whatever order the repair starts from; and since one placement
		// moves one node's load, the repair is close to one comparison
		// per node.
		loads := c.mem.loads[:0]
		for _, nd := range c.nodes {
			loads = append(loads, nd.load())
		}
		c.mem.loads = loads
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

// doCrash takes a node down at the barrier: its kernel vanishes, its
// incarnation stats fold into the node accumulators (without
// finalizing the checker — open periods died with the node), and
// every fleet guarantee it held enters the recovery pipeline.
func (c *Cluster) doCrash(ni int, now ticks.Ticks) {
	n := c.nodes[ni]
	if n.down {
		c.flog.Record(now, "fleet.crash-skipped", fmt.Sprintf("node %d is already down", ni))
		return
	}
	if n.stallErr != "" {
		return
	}
	n.retire(false)
	lost := n.placed
	n.placed = nil
	n.down = true
	n.d, n.chk = nil, nil
	c.cCrash.Inc()
	c.tel.SpanLog().Instant(now, "fleet", "crash", telemetry.NoTask, 0,
		fmt.Sprintf("node %d; %d guarantee(s) lost", ni, len(lost)))
	c.flog.Record(now, "fault.node-crash",
		fmt.Sprintf("node %d crashed; %d fleet guarantee(s) lost, re-admitting", ni, len(lost)))
	// The crash is a breach by definition: capture the dying node's
	// black box now, while its last spans and events are still the
	// most recent thing in the rings.
	c.dump(n.flight, telemetry.NodeTag(ni), "node-crash", now)
	for _, a := range lost {
		a.state = admPending
		a.node, a.id = -1, task.NoID
		a.recovering = true
		a.crashAt = now
		a.attempts = 0
		a.timesLost++
		c.cLost.Inc()
		c.fleetSpan(now, "crash-readmit", a, fmt.Sprintf("%s lost with node %d", a.Name, ni))
		c.push(now, actRetry, a, -1)
	}
}

// doRestart brings a crashed node back with a fresh kernel on the
// next link of its seed chain, idles it forward to cluster time, and
// re-installs its resident workload.
func (c *Cluster) doRestart(ni int, now ticks.Ticks) {
	n := c.nodes[ni]
	if !n.down {
		c.flog.Record(now, "fleet.restart-skipped", fmt.Sprintf("node %d is already up", ni))
		return
	}
	n.seed = sim.SplitSeed(n.seed, StreamNodeSeeds)
	n.down = false
	n.restarts++
	c.cRestart.Inc()
	c.tel.SpanLog().Instant(now, "fleet", "restart", telemetry.NoTask, 0,
		fmt.Sprintf("node %d incarnation %d", ni, n.restarts+1))
	n.build(now)
	c.flog.Record(now, "fault.node-restart",
		fmt.Sprintf("node %d restarted with a fresh kernel (restart #%d)", ni, n.restarts))
}

// completionScan retires ledger entries whose tasks exited
// naturally. The Resource Manager is the liveness oracle: it knows a
// task from RequestAdmittance until its body exits (core sets
// RemoveOnExit), so an ID the RM no longer recognises was delivered
// in full. The scheduler cannot be used here — it only learns a task
// when its first grant is collected, which may be an epoch after
// placement.
func (c *Cluster) completionScan(now ticks.Ticks) {
	for _, n := range c.nodes {
		if n.down || n.d == nil || len(n.placed) == 0 {
			continue
		}
		// A task leaves the RM only through a grant recompute, and a
		// placement enters through one: at an unchanged generation the
		// last scan's answers still stand.
		gen := n.d.Manager().GrantGeneration()
		if gen == n.scannedGen {
			continue
		}
		n.scannedGen = gen
		kept := n.placed[:0]
		for _, a := range n.placed {
			if n.d.Manager().Has(a.id) {
				kept = append(kept, a)
				continue
			}
			a.state = admDone
			a.id = task.NoID
			c.fleetSpan(now, "complete", a, fmt.Sprintf("%s ran out on node %d", a.Name, n.id))
		}
		n.placed = kept
	}
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
	offer := a.offer()
	for _, ni := range c.placementOrder(a) {
		t := c.nodes[ni]
		if ni == src.id || t.down || t.d == nil || t.stallErr != "" {
			continue
		}
		if t.d.Manager().Pressure().Cmp(ticks.FracZero) > 0 {
			continue
		}
		id, err := t.d.RequestAdmittance(offer)
		if err != nil {
			c.deniedAttempts++
			continue
		}
		if err := src.d.Terminate(a.id); err != nil {
			_ = t.d.Terminate(id)
			c.flog.Record(now, "fleet.migrate-failed",
				fmt.Sprintf("%s: source node %d would not release: %v", a.Name, src.id, err))
			return
		}
		t.d.Kernel().RunInterrupt(c.cfg.MigrationCost)
		src.placed = src.placed[:len(src.placed)-1]
		a.node, a.id = ni, id
		t.placed = append(t.placed, a)
		c.cMigrate.Inc()
		m := c.fleetSpan(now, "migrate", a, fmt.Sprintf("%s node %d -> %d", a.Name, src.id, ni))
		c.tipToAdmission(t, a, m)
		c.flog.Record(now, "fleet.migrate",
			fmt.Sprintf("%s moved node %d -> %d under shed pressure; %v transfer charged to target",
				a.Name, src.id, ni, c.cfg.MigrationCost))
		return
	}
	c.migrateFailed++
	c.flog.Record(now, "fleet.migrate-failed",
		fmt.Sprintf("%s: node %d under pressure but no sibling can host", a.Name, src.id))
}

// finish drains the pipeline at the horizon: in-flight retries
// become recorded outcomes, arrivals beyond the horizon are counted
// as never-arrived, live incarnations retire with finalized
// checkers.
func (c *Cluster) finish(horizon ticks.Ticks) {
	for c.mem.q.len() > 0 {
		a := c.mem.q.pop()
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
		}
	}
	// Finalized checkers can surface stuck-period breaches that no
	// barrier saw; give those a horizon-time dump too. retire(true)
	// already folded the live checker's count into accViolations, so
	// compare against the accumulator alone.
	for _, n := range c.nodes {
		if n.down {
			continue
		}
		if n.accViolations > n.violDumped {
			n.violDumped = n.accViolations
			c.dump(n.flight, telemetry.NodeTag(n.id), "invariant", horizon)
		}
	}
}

// auditConservation re-derives the guarantee ledger from the
// admission records and holds the fleet.* counters to it. The ledger
// being re-computed from scratch is the point: a bookkeeping bug in
// the pipeline cannot silently agree with itself.
func (c *Cluster) auditConservation() []string {
	var probs []string
	var lost, recovered, lostRec int64
	cLost, cRecovered, cDrop := c.cLost.Value(), c.cRecovered.Value(), c.cDrop.Value()
	for _, a := range c.adms {
		lost += int64(a.timesLost)
		recovered += int64(a.timesRecovered)
		if a.state == admLost {
			lostRec++
		}
		if a.recovering {
			probs = append(probs, fmt.Sprintf(
				"%s (seq %d): crash-lost guarantee neither re-placed nor recorded", a.Name, a.seq))
		}
		want := a.timesLost
		if a.state == admLost {
			want--
		}
		if a.timesRecovered != want && !a.recovering {
			probs = append(probs, fmt.Sprintf(
				"%s (seq %d): %d crash losses vs %d recoveries in state %d",
				a.Name, a.seq, a.timesLost, a.timesRecovered, a.state))
		}
	}
	if lost != cLost || recovered != cRecovered || lostRec != cDrop {
		probs = append(probs, fmt.Sprintf(
			"ledger counters diverge from records: lost %d/%d, recovered %d/%d, recorded %d/%d",
			lost, cLost, recovered, cRecovered, lostRec, cDrop))
	}
	if cLost != cRecovered+cDrop {
		probs = append(probs, fmt.Sprintf(
			"conservation: %d guarantees lost to crashes != %d re-placed + %d recorded degradations",
			cLost, cRecovered, cDrop))
	}
	return probs
}

// --- the report ---

// Report is a finished run's frozen measurements. Every field is a
// pure function of (Config, submissions, armed injectors), never of
// Workers.
type Report struct {
	Nodes   int
	Horizon ticks.Ticks

	Arrivals   int64 // admissions whose arrival barrier fell inside the horizon
	Placed     int64 // guarantees committed (counting each re-placement once)
	Spillovers int64 // placements that landed after at least one live-node denial
	Retries    int64 // backoff rounds consumed by fleet-wide denials
	Rejected   int64 // admissions denied fleet-wide past the retry budget
	Unarrived  int64 // submissions whose arrival time fell beyond the horizon

	DeniedAttempts int64 // individual node-level denials across all scans

	Migrations    int64 // pressure-driven moves committed (with cost charged)
	MigrateFailed int64 // pressure sources that found no host

	Crashes      int64 // node crashes executed
	Restarts     int64 // node restarts executed
	LostToCrash  int64 // guarantees on crashed nodes entering recovery
	Recovered    int64 // crash-lost guarantees re-placed on siblings
	LostRecorded int64 // crash-lost guarantees recorded as degradations

	// RecoveryMS samples crash→re-placement latency, per recovery.
	RecoveryMS metrics.Summary

	Misses  int64 // deadline misses across all nodes and incarnations
	Periods int64 // period starts across all nodes and incarnations

	Degradations int64 // recorded rm pressure decisions, summed over nodes
	// Violations counts per-node invariant-checker breaches plus
	// fleet-ledger conservation failures; zero on a healthy run.
	Violations     int64
	FaultsInjected int64

	// Fleet-aggregate fractions over live node capacity (downtime is
	// excluded from the denominator).
	Utilization    float64
	SwitchOverhead float64
	InterruptLoad  float64

	// Stalled lists nodes whose kernels tripped the livelock guard,
	// and node-init failures; non-empty means the run is invalid.
	Stalled []string

	// Telemetry is the merged cluster snapshot: the coordinator's
	// fleet.* counters unioned with every node's own registry
	// (sched.*, rm.*, sim.*, invariant.*), merged coordinator-first
	// then in node-ID order — worker-count invariant like every other
	// aggregate here.
	Telemetry telemetry.Snapshot

	// PerNode is each node's own telemetry snapshot, in node-ID order,
	// so a report can attribute misses or pressure to a specific node
	// instead of the flat cluster union.
	PerNode []NodeTelemetry

	// FlightDumps are the run's black-box artifacts, in trigger order:
	// one per node crash, per newly noticed invariant breach, per
	// stall, and per conservation-audit failure.
	FlightDumps []telemetry.FlightDump

	// Log is the merged event log: coordinator events first, then
	// each node's own log in node-ID order.
	Log telemetry.EventLog
}

// NodeTelemetry is one node's slice of the report.
type NodeTelemetry struct {
	Node      int
	Restarts  int
	Telemetry telemetry.Snapshot
}

func (c *Cluster) report(horizon ticks.Ticks) *Report {
	probs := c.auditConservation()
	for _, p := range probs {
		c.flog.Record(horizon, "invariant.fleet-conservation", p)
	}
	if len(probs) > 0 {
		// A broken ledger is exactly what the coordinator's black box
		// exists for: dump it with the breach freshly logged.
		c.dump(c.mem.flight, telemetry.CoordTag, "fleet-conservation", horizon)
	}
	r := &Report{
		Nodes:          len(c.nodes),
		Horizon:        horizon,
		Arrivals:       c.arrivals,
		Placed:         c.cPlaced.Value(),
		Spillovers:     c.cSpill.Value(),
		Retries:        c.cRetry.Value(),
		Rejected:       c.cReject.Value(),
		Unarrived:      c.unarrived,
		DeniedAttempts: c.deniedAttempts,
		Migrations:     c.cMigrate.Value(),
		MigrateFailed:  c.migrateFailed,
		Crashes:        c.cCrash.Value(),
		Restarts:       c.cRestart.Value(),
		LostToCrash:    c.cLost.Value(),
		Recovered:      c.cRecovered.Value(),
		LostRecorded:   c.cDrop.Value(),
		Violations:     int64(len(probs)),
	}
	r.RecoveryMS.Merge(&c.recoveryMS)
	r.Log.Merge(&c.flog)
	r.Telemetry = c.tel.Reg().Snapshot()
	r.PerNode = make([]NodeTelemetry, len(c.nodes))
	r.FlightDumps = c.flightDumps
	var elapsed, busy, sw, irq ticks.Ticks
	for i, n := range c.nodes {
		r.Degradations += n.accDegradations
		r.Violations += n.accViolations
		elapsed += n.accElapsed
		busy += n.accStats.BusyTicks
		sw += n.accStats.SwitchTicks
		irq += n.accStats.InterruptTicks
		if n.stallErr != "" {
			r.Stalled = append(r.Stalled, n.stallErr)
		}
		if n.initErr != "" {
			r.Stalled = append(r.Stalled, n.initErr)
		}
		r.Log.Merge(&n.flog)
		snap := n.tel.Reg().Snapshot()
		r.Misses += snap.CounterValue("sched.deadline.misses")
		r.Periods += snap.CounterValue("sched.period.rollovers")
		r.PerNode[i] = NodeTelemetry{Node: i, Restarts: n.restarts, Telemetry: snap}
		r.Telemetry.Merge(snap)
	}
	if elapsed > 0 {
		r.Utilization = float64(busy) / float64(elapsed)
		r.SwitchOverhead = float64(sw) / float64(elapsed)
		r.InterruptLoad = float64(irq) / float64(elapsed)
	}
	r.FaultsInjected = int64(r.Log.KindPrefixCount("fault."))
	return r
}

// Summary renders the report's scalar fields in a fixed layout —
// the worker-invariance and determinism tests compare these strings
// (and Log.String()) byte for byte.
func (r *Report) Summary() string {
	return fmt.Sprintf(
		"nodes=%d horizon=%v arrivals=%d placed=%d spill=%d retries=%d rejected=%d unarrived=%d denied=%d "+
			"migrations=%d migrate-failed=%d crashes=%d restarts=%d lost=%d recovered=%d lost-recorded=%d "+
			"recovery-p50=%.3fms recovery-p99=%.3fms misses=%d periods=%d degr=%d viol=%d faults=%d "+
			"util=%.6f sw=%.6f irq=%.6f stalled=%d",
		r.Nodes, r.Horizon, r.Arrivals, r.Placed, r.Spillovers, r.Retries, r.Rejected, r.Unarrived,
		r.DeniedAttempts, r.Migrations, r.MigrateFailed, r.Crashes, r.Restarts, r.LostToCrash,
		r.Recovered, r.LostRecorded, r.RecoveryMS.Percentile(50), r.RecoveryMS.Percentile(99),
		r.Misses, r.Periods, r.Degradations, r.Violations, r.FaultsInjected,
		r.Utilization, r.SwitchOverhead, r.InterruptLoad, len(r.Stalled))
}
